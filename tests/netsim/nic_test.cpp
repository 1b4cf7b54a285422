#include "src/netsim/nic.h"

#include <gtest/gtest.h>

#include "src/netsim/network.h"

namespace ab::netsim {
namespace {

ether::Frame to(ether::MacAddress dst, ether::MacAddress src, std::size_t len = 64) {
  return ether::Frame::ethernet2(dst, src, ether::EtherType::kExperimental,
                                 util::ByteBuffer(len, 0x44));
}

struct TwoNics {
  Network net;
  LanSegment* lan;
  Nic* a;
  Nic* b;
  TwoNics() {
    lan = &net.add_segment("lan");
    a = &net.add_nic("a", *lan);
    b = &net.add_nic("b", *lan);
  }
};

TEST(Nic, AddressFilterAcceptsOwnUnicast) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  t.a->transmit(to(t.b->mac(), t.a->mac()));
  t.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(Nic, AddressFilterRejectsForeignUnicast) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  const auto other = ether::MacAddress::parse("02:aa:aa:aa:aa:aa").value();
  t.a->transmit(to(other, t.a->mac()));
  t.net.scheduler().run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(t.b->stats().rx_filtered, 1u);
}

TEST(Nic, PromiscuousModeAcceptsEverything) {
  // The paper: binding an input port puts it into promiscuous mode.
  TwoNics t;
  int got = 0;
  t.b->set_promiscuous(true);
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  const auto other = ether::MacAddress::parse("02:aa:aa:aa:aa:aa").value();
  t.a->transmit(to(other, t.a->mac()));
  t.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(Nic, BroadcastAndMulticastPassTheFilter) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  t.a->transmit(to(ether::MacAddress::broadcast(), t.a->mac()));
  t.a->transmit(to(ether::MacAddress::all_bridges(), t.a->mac()));
  t.net.scheduler().run();
  EXPECT_EQ(got, 2);
}

TEST(Nic, TransmitFailsWhenDetached) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  a.detach();
  EXPECT_FALSE(a.transmit(to(ether::MacAddress::broadcast(), a.mac())));
  EXPECT_EQ(a.stats().tx_dropped, 1u);
}

TEST(Nic, TxQueueTailDropsWhenFull) {
  TwoNics t;
  t.a->set_tx_queue_limit(4);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (t.a->transmit(to(t.b->mac(), t.a->mac(), 1000))) ++accepted;
  }
  // One frame may already be in the transmitter plus 4 queued.
  EXPECT_LE(accepted, 6);
  EXPECT_GT(t.a->stats().tx_dropped, 0u);
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().tx_frames, static_cast<std::uint64_t>(accepted));
}

TEST(Nic, FramesSerializeBackToBack) {
  TwoNics t;
  std::vector<TimePoint> arrivals;
  t.b->set_rx_handler([&](const ether::WireFrame&) { arrivals.push_back(t.net.now()); });
  const ether::Frame f = to(t.b->mac(), t.a->mac(), 1000);
  const Duration ser = t.lan->serialization_delay(f.wire_size());
  t.a->transmit(f);
  t.a->transmit(f);
  t.net.scheduler().run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second frame leaves one serialization time after the first.
  EXPECT_EQ((arrivals[1] - arrivals[0]), ser);
}

TEST(Nic, StatsCountRxTx) {
  TwoNics t;
  t.b->set_rx_handler([](const ether::WireFrame&) {});
  t.a->transmit(to(t.b->mac(), t.a->mac()));
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().tx_frames, 1u);
  EXPECT_GT(t.a->stats().tx_bytes, 0u);
  EXPECT_EQ(t.b->stats().rx_frames, 1u);
}

TEST(Nic, ReattachToAnotherSegment) {
  Network net;
  LanSegment& lan1 = net.add_segment("lan1");
  LanSegment& lan2 = net.add_segment("lan2");
  Nic& a = net.add_nic("a", lan1);
  Nic& b = net.add_nic("b", lan2);
  int got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  a.attach(lan2);
  EXPECT_EQ(a.segment(), &lan2);
  a.transmit(to(b.mac(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(Nic, NoHandlerMeansFrameIsDroppedQuietly) {
  TwoNics t;
  t.a->transmit(to(t.b->mac(), t.a->mac()));
  t.net.scheduler().run();  // must not crash
  EXPECT_EQ(t.b->stats().rx_frames, 1u);
}

std::vector<ether::WireFrame> burst_of(std::size_t count, ether::MacAddress dst,
                                       ether::MacAddress src, std::size_t len = 1000) {
  std::vector<ether::WireFrame> frames;
  for (std::size_t i = 0; i < count; ++i) {
    frames.emplace_back(to(dst, src, len));
  }
  return frames;
}

TEST(NicBurst, BurstDeliversBackToBackLikeSequentialTransmits) {
  // transmit_burst must produce the exact arrival schedule k transmit()
  // calls do: one serialization time between consecutive frames.
  TwoNics t;
  std::vector<TimePoint> arrivals;
  t.b->set_rx_handler([&](const ether::WireFrame&) { arrivals.push_back(t.net.now()); });
  const Duration ser = t.lan->serialization_delay(to(t.b->mac(), t.a->mac(), 1000)
                                                      .wire_size());
  auto frames = burst_of(4, t.b->mac(), t.a->mac());
  EXPECT_EQ(t.a->transmit_burst(frames), 4u);
  t.net.scheduler().run();
  ASSERT_EQ(arrivals.size(), 4u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], ser);
  }
  EXPECT_EQ(t.a->stats().tx_frames, 4u);
}

TEST(NicBurst, BurstCostsTwoSchedulerInserts) {
  // One timed run for the k transmit completions, one for the k paced
  // deliveries -- two heap inserts total, however large the burst.
  TwoNics t;
  t.b->set_rx_handler([](const ether::WireFrame&) {});
  auto frames = burst_of(8, t.b->mac(), t.a->mac());
  const std::uint64_t before = t.net.scheduler().inserts();
  t.a->transmit_burst(frames);
  EXPECT_EQ(t.net.scheduler().inserts() - before, 2u);
  t.net.scheduler().run();
  EXPECT_EQ(t.b->stats().rx_frames, 8u);
}

TEST(NicBurst, BurstTailDropsAtTheQueueLimit) {
  TwoNics t;
  t.a->set_tx_queue_limit(4);
  auto frames = burst_of(20, t.b->mac(), t.a->mac());
  const std::size_t admitted = t.a->transmit_burst(frames);
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(t.a->stats().tx_dropped, 16u);
  t.net.scheduler().run();
  EXPECT_EQ(t.a->stats().tx_frames, admitted);
}

TEST(NicBurst, InFlightBurstCountsAgainstTheQueueLimit) {
  // The chain kept the backlog in tx_queue_; the run holds it in the
  // scheduler. Backpressure must not change: with limit L and a full
  // burst in flight, at most one more frame (the serializing slot) is
  // admitted -- L + 1 in the system, exactly as sequential transmit()
  // against the chain allowed.
  TwoNics t;
  t.a->set_tx_queue_limit(4);
  t.b->set_rx_handler([](const ether::WireFrame&) {});
  auto frames = burst_of(4, t.b->mac(), t.a->mac());
  ASSERT_EQ(t.a->transmit_burst(frames), 4u);  // drained as one run
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (t.a->transmit(to(t.b->mac(), t.a->mac(), 1000))) ++admitted;
  }
  EXPECT_EQ(admitted, 1);  // 3 run frames beyond the serializing one + 1 = limit
  t.net.scheduler().run();
  EXPECT_EQ(t.b->stats().rx_frames, 5u);
  // Fully drained: the backlog accounting must return to zero.
  EXPECT_TRUE(t.a->transmit(to(t.b->mac(), t.a->mac(), 1000)));
}

TEST(NicBurst, BurstOnDetachedNicDropsEverything) {
  TwoNics t;
  t.a->detach();
  auto frames = burst_of(3, t.b->mac(), t.a->mac());
  EXPECT_EQ(t.a->transmit_burst(frames), 0u);
  EXPECT_EQ(t.a->stats().tx_dropped, 3u);
}

TEST(NicBurst, BurstSplitsAndResumesAcrossStepBudgets) {
  // A burst is observably k individual completion events: step() fires one
  // frame at a time, and a run(max) budget that splits the burst leaves
  // the remaining frames to deliver afterwards, in order, on time.
  TwoNics t;
  std::vector<TimePoint> arrivals;
  t.b->set_rx_handler([&](const ether::WireFrame&) { arrivals.push_back(t.net.now()); });
  auto frames = burst_of(4, t.b->mac(), t.a->mac());
  t.a->transmit_burst(frames);
  // Each frame costs two events: its serialization completion (run entry)
  // and the segment's delivery walk.
  EXPECT_EQ(t.net.scheduler().run(3), 3u);  // completion, delivery, completion
  EXPECT_EQ(arrivals.size(), 1u);
  t.net.scheduler().run();
  ASSERT_EQ(arrivals.size(), 4u);
  const Duration ser = t.lan->serialization_delay(to(t.b->mac(), t.a->mac(), 1000)
                                                      .wire_size());
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], ser);
  }
}

TEST(NicBurst, FramesQueuedMidBurstDrainAfterIt) {
  // A transmit() while the burst run is in flight queues behind it and
  // serializes right after the burst's last frame -- the chain timing.
  TwoNics t;
  std::vector<TimePoint> arrivals;
  t.b->set_rx_handler([&](const ether::WireFrame&) { arrivals.push_back(t.net.now()); });
  const ether::Frame f = to(t.b->mac(), t.a->mac(), 1000);
  const Duration ser = t.lan->serialization_delay(f.wire_size());
  auto frames = burst_of(3, t.b->mac(), t.a->mac());
  t.a->transmit_burst(frames);
  // After the first completion fires, enqueue a straggler.
  t.net.scheduler().run(1);
  t.a->transmit(f);
  t.net.scheduler().run();
  ASSERT_EQ(arrivals.size(), 4u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], ser);
  }
  EXPECT_EQ(t.a->stats().tx_frames, 4u);
}

TEST(NicBurst, DetachMidBurstSkipsTheRemainingBroadcasts) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  auto frames = burst_of(3, t.b->mac(), t.a->mac());
  t.a->transmit_burst(frames);
  t.net.scheduler().run(2);  // first completion + its delivery
  t.a->detach();
  t.net.scheduler().run();  // remaining completions fire but do not broadcast
  EXPECT_EQ(got, 1);
}

TEST(NicBurst, ReattachMidBurstDoesNotLeakOldPacingOntoTheNewSegment) {
  // A burst is paced for the segment it drained on; frames remaining when
  // the NIC moves to another segment must NOT be delivered there at the
  // old segment's completion times.
  Network net;
  LanSegment& lan1 = net.add_segment("lan1");
  LanSegment& lan2 = net.add_segment("lan2");
  Nic& a = net.add_nic("a", lan1);
  Nic& b = net.add_nic("b", lan1);
  Nic& c = net.add_nic("c", lan2);
  int on_lan1 = 0;
  int on_lan2 = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++on_lan1; });
  c.set_promiscuous(true);
  c.set_rx_handler([&](const ether::WireFrame&) { ++on_lan2; });
  auto frames = burst_of(3, b.mac(), a.mac());
  a.transmit_burst(frames);
  net.scheduler().run(2);  // first completion + its delivery on lan1
  a.attach(lan2);
  net.scheduler().run();
  EXPECT_EQ(on_lan1, 1);
  EXPECT_EQ(on_lan2, 0);  // stale burst frames never reach the new segment
  // The transmitter is free again for properly paced traffic on lan2.
  EXPECT_TRUE(a.transmit(to(c.mac(), a.mac())));
  net.scheduler().run();
  EXPECT_EQ(on_lan2, 1);

  // The same contract holds for the single-frame path and for claimed
  // (try_prepare) transmissions: whether a stale frame leaks must not
  // depend on backlog depth.
  a.attach(lan1);
  a.transmit(to(b.mac(), a.mac()));  // single in-flight frame, paced for lan1
  a.attach(lan2);
  net.scheduler().run();
  EXPECT_EQ(on_lan1, 1);
  EXPECT_EQ(on_lan2, 1);

  a.attach(lan1);
  auto claimed = a.try_prepare(ether::WireFrame(to(b.mac(), a.mac())));
  ASSERT_TRUE(claimed.has_value());
  std::vector<Scheduler::TimedEntry> run;
  run.push_back(std::move(*claimed));
  net.scheduler().schedule_run_at(run);
  a.attach(lan2);
  net.scheduler().run();
  EXPECT_EQ(on_lan1, 1);
  EXPECT_EQ(on_lan2, 1);
}

TEST(NicBurst, TryPrepareClaimsIdleTransmitterOnly) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  const ether::WireFrame frame(to(t.b->mac(), t.a->mac(), 1000));
  auto claimed = t.a->try_prepare(frame);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->when - t.net.now(),
            t.lan->serialization_delay(frame.wire_size()));
  // Busy transmitter (claimed above): a second prepare declines, with no
  // side effects -- transmit() still queues behind the claim.
  EXPECT_FALSE(t.a->try_prepare(frame).has_value());
  EXPECT_EQ(t.a->stats().tx_frames, 1u);
  EXPECT_TRUE(t.a->transmit(frame));
  // Schedule the claimed completion, as a TxBatch would.
  std::vector<Scheduler::TimedEntry> run;
  run.push_back(std::move(*claimed));
  t.net.scheduler().schedule_run_at(run);
  t.net.scheduler().run();
  EXPECT_EQ(got, 2);  // the claimed frame AND the queued one both made it
  EXPECT_EQ(t.a->stats().tx_frames, 2u);
}

TEST(NicBurst, TryPrepareDeclinesWhenDetached) {
  TwoNics t;
  t.a->detach();
  const ether::WireFrame frame(to(t.b->mac(), t.a->mac()));
  EXPECT_FALSE(t.a->try_prepare(frame).has_value());
  EXPECT_EQ(t.a->stats().tx_dropped, 0u);  // no side effects: caller decides
}

// ---------------------------------------------------------------------------
// Malformed frames fail at the call site. Transmit validates a frame rather
// than encoding it (its bytes are built only when something reads them),
// and must still throw what Frame::encode would -- before touching any
// counter, the transmitter, or the scheduler.

ether::Frame oversized(ether::MacAddress dst, ether::MacAddress src) {
  return to(dst, src, ether::Frame::kMaxPayload + 1);
}

ether::Frame untyped(ether::MacAddress dst, ether::MacAddress src) {
  ether::Frame f;  // neither ethertype nor LLC header
  f.dst = dst;
  f.src = src;
  f.payload = util::ByteBuffer(64, 0x44);
  return f;
}

/// The transmit-side state a rejected frame must leave as it found it.
struct TxState {
  std::uint64_t tx_frames;
  std::uint64_t tx_bytes;
  std::uint64_t tx_dropped;
  std::size_t pending;
  friend bool operator==(const TxState&, const TxState&) = default;
};

TxState tx_state(TwoNics& t) {
  const NicStats& s = t.a->stats();
  return {s.tx_frames, s.tx_bytes, s.tx_dropped, t.net.scheduler().pending()};
}

TEST(NicMalformed, TransmitThrowsAtTheCallSiteWithoutSideEffects) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  TxState before = tx_state(t);
  EXPECT_THROW(t.a->transmit(oversized(t.b->mac(), t.a->mac())), std::length_error);
  EXPECT_THROW(t.a->transmit(untyped(t.b->mac(), t.a->mac())), std::logic_error);
  EXPECT_TRUE(tx_state(t) == before);

  // The transmitter was never claimed: a good frame goes straight out.
  EXPECT_TRUE(t.a->transmit(to(t.b->mac(), t.a->mac(), 1000)));
  // Busy now, with an in-flight run a frame could extend: a malformed
  // frame must neither extend it nor queue.
  before = tx_state(t);
  EXPECT_THROW(t.a->transmit(oversized(t.b->mac(), t.a->mac())), std::length_error);
  EXPECT_THROW(t.a->transmit(untyped(t.b->mac(), t.a->mac())), std::logic_error);
  EXPECT_TRUE(tx_state(t) == before);
  t.net.scheduler().run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(t.a->stats().tx_frames, 1u);
}

TEST(NicMalformed, BurstThrowsBeforeAdmittingAnyFrame) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  auto frames = burst_of(3, t.b->mac(), t.a->mac());
  frames.insert(frames.begin() + 1, ether::WireFrame(oversized(t.b->mac(), t.a->mac())));
  const TxState before = tx_state(t);
  EXPECT_THROW(t.a->transmit_burst(frames), std::length_error);
  EXPECT_TRUE(tx_state(t) == before);
  frames[1] = ether::WireFrame(untyped(t.b->mac(), t.a->mac()));
  EXPECT_THROW(t.a->transmit_burst(frames), std::logic_error);
  EXPECT_TRUE(tx_state(t) == before);
  for (const ether::WireFrame& frame : frames) EXPECT_FALSE(frame.empty());  // none moved

  // Nothing was queued or claimed: the good frames then drain as a burst.
  frames.erase(frames.begin() + 1);
  EXPECT_EQ(t.a->transmit_burst(frames), 3u);
  t.net.scheduler().run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(t.a->stats().tx_frames, 3u);
}

TEST(NicMalformed, BurstTailDropsAMalformedFrameTheQueueWouldNotTake) {
  // Admission comes first, as in transmit(): a frame past the queue limit
  // is a counted drop, not an error, whatever it holds.
  TwoNics t;
  t.a->set_tx_queue_limit(2);
  auto frames = burst_of(2, t.b->mac(), t.a->mac());
  frames.emplace_back(oversized(t.b->mac(), t.a->mac()));
  EXPECT_EQ(t.a->transmit_burst(frames), 2u);
  EXPECT_EQ(t.a->stats().tx_dropped, 1u);
}

TEST(NicMalformed, TryPrepareThrowsWithoutClaimingTheTransmitter) {
  TwoNics t;
  int got = 0;
  t.b->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  const TxState before = tx_state(t);
  EXPECT_THROW((void)t.a->try_prepare(oversized(t.b->mac(), t.a->mac())),
               std::length_error);
  EXPECT_THROW((void)t.a->try_prepare(untyped(t.b->mac(), t.a->mac())),
               std::logic_error);
  EXPECT_TRUE(tx_state(t) == before);

  // Still idle: a good frame is claimed, and goes out once scheduled.
  auto claimed = t.a->try_prepare(to(t.b->mac(), t.a->mac()));
  ASSERT_TRUE(claimed.has_value());
  std::vector<Scheduler::TimedEntry> run;
  run.push_back(std::move(*claimed));
  t.net.scheduler().schedule_run_at(run);
  t.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(TxBatch, FlushSchedulesOneRunAndSortsByCompletionTime) {
  Network net;
  std::vector<int> order;
  TxBatch batch;
  // Out-of-order completion times with an equal-time pair: flush must sort
  // by time, stable within the tie.
  const auto entry = [&](int label, Duration when) {
    Scheduler::TimedEntry e;
    e.when = TimePoint{} + when;
    e.fn = [&order, label] { order.push_back(label); };
    return e;
  };
  batch.add(entry(0, milliseconds(5)));
  batch.add(entry(1, milliseconds(2)));
  batch.add(entry(2, milliseconds(5)));
  batch.add(entry(3, milliseconds(2)));
  const std::uint64_t before = net.scheduler().inserts();
  batch.flush(net.scheduler());
  EXPECT_EQ(net.scheduler().inserts() - before, 1u);
  EXPECT_TRUE(batch.empty());
  net.scheduler().run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
}

TEST(TxBatch, FlushOfEmptyBatchIsANoOp) {
  Network net;
  TxBatch batch;
  EXPECT_EQ(batch.flush(net.scheduler()), BatchId{});
  EXPECT_TRUE(net.scheduler().empty());
}

TEST(Nic, RunExtensionTimingMatchesTheQueuedModel) {
  // The saturated-transmit extension claims timing identity: a frame that
  // extends the in-flight run must complete and deliver at EXACTLY the
  // times the queue-then-restart path produces, saving one heap insert
  // and nothing else. Run the same scenario twice -- the control disables
  // extension by staling the run handle (note_run(BatchId{}), the state a
  // claim has before TxBatch reports back), forcing the FIFO fallback.
  struct Out {
    std::vector<Duration> delivered_at;
    std::uint64_t inserts = 0;
    std::uint64_t scheduled = 0;
  };
  auto drive = [](bool stale_handle) {
    Out out;
    Network net;
    LanSegment& lan = net.add_segment("lan");
    Nic& tx = net.add_nic("tx", lan);
    Nic& rx = net.add_nic("rx", lan);
    rx.set_rx_handler([&](const ether::WireFrame&) {
      out.delivered_at.push_back(net.scheduler().now().time_since_epoch());
    });
    tx.transmit(to(rx.mac(), tx.mac(), 1000));
    if (stale_handle) tx.note_run(BatchId{});
    // Offer the second frame mid-serialization of the first: transmitter
    // busy, queue empty -- the extension case.
    net.scheduler().schedule_after(microseconds(20), [&] {
      tx.transmit(to(rx.mac(), tx.mac(), 600));
    });
    net.scheduler().run();
    out.inserts = net.scheduler().inserts();
    out.scheduled = net.scheduler().scheduled();
    return out;
  };
  const Out extended = drive(false);
  const Out queued = drive(true);

  ASSERT_EQ(extended.delivered_at.size(), 2u);
  ASSERT_EQ(queued.delivered_at.size(), 2u);
  EXPECT_EQ(extended.delivered_at, queued.delivered_at);
  // Identical event programs, one fewer heap insert on the extension side
  // (the queued model restarts the transmitter with a fresh run).
  EXPECT_EQ(extended.scheduled, queued.scheduled);
  EXPECT_EQ(extended.inserts + 1, queued.inserts);

  // And both match the analytic FIFO model: back-to-back serialization
  // from t=0, each delivery one propagation later.
  Network probe_net;
  LanSegment& probe = probe_net.add_segment("probe");
  const Duration ser1 =
      probe.serialization_delay(ether::WireFrame(to({}, {}, 1000)).wire_size());
  const Duration ser2 =
      probe.serialization_delay(ether::WireFrame(to({}, {}, 600)).wire_size());
  const Duration prop = probe.config().propagation;
  EXPECT_EQ(extended.delivered_at[0], ser1 + prop);
  EXPECT_EQ(extended.delivered_at[1], ser1 + ser2 + prop);
}

}  // namespace
}  // namespace ab::netsim
