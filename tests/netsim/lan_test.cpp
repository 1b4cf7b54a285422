#include "src/netsim/lan.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/netsim/trace.h"

namespace ab::netsim {
namespace {

ether::Frame test_frame(ether::MacAddress dst, ether::MacAddress src,
                        std::size_t len = 64) {
  return ether::Frame::ethernet2(dst, src, ether::EtherType::kExperimental,
                                 util::ByteBuffer(len, 0x33));
}

TEST(LanSegment, SerializationDelayMatchesBitRate) {
  Network net;
  LanConfig cfg;
  cfg.bit_rate = 100e6;  // 100 Mb/s
  LanSegment& lan = net.add_segment("lan", cfg);
  // 1250 bytes = 10000 bits = 100 us at 100 Mb/s.
  EXPECT_EQ(lan.serialization_delay(1250), microseconds(100));
}

TEST(LanSegment, RejectsNonPositiveBitRate) {
  Network net;
  LanConfig cfg;
  cfg.bit_rate = 0;
  EXPECT_THROW(net.add_segment("bad", cfg), std::invalid_argument);
}

TEST(LanSegment, BroadcastReachesAllButSender) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);

  int b_got = 0, c_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });
  c.set_rx_handler([&](const ether::WireFrame&) { ++c_got; });

  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  EXPECT_EQ(a.stats().rx_frames, 0u);  // sender does not hear itself
}

TEST(LanSegment, PropagationDelayIsApplied) {
  Network net;
  LanConfig cfg;
  cfg.propagation = microseconds(50);
  LanSegment& lan = net.add_segment("lan", cfg);
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);

  TimePoint delivered{};
  b.set_rx_handler([&](const ether::WireFrame&) { delivered = net.now(); });
  const ether::Frame f = test_frame(b.mac(), a.mac());
  const Duration ser = lan.serialization_delay(f.wire_size());
  a.transmit(f);
  net.scheduler().run();
  EXPECT_EQ(delivered.time_since_epoch(), (ser + cfg.propagation).count() * Duration(1));
}

TEST(LanSegment, LossModelDropsApproximatelyTheConfiguredFraction) {
  Network net;
  LanConfig cfg;
  cfg.loss = 0.5;
  cfg.seed = 42;
  LanSegment& lan = net.add_segment("lossy", cfg);
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);

  int got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  const int kFrames = 1000;
  a.set_tx_queue_limit(kFrames + 1);
  for (int i = 0; i < kFrames; ++i) {
    a.transmit(test_frame(b.mac(), a.mac()));
  }
  net.scheduler().run();
  EXPECT_GT(got, 350);
  EXPECT_LT(got, 650);
  EXPECT_EQ(lan.stats().frames_lost, static_cast<std::uint64_t>(kFrames - got));
}

TEST(LanSegment, StatsCountCarriedFrames) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  net.add_nic("b", lan);
  for (int i = 0; i < 5; ++i) a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(lan.stats().frames_carried, 5u);
  EXPECT_GT(lan.stats().bytes_carried, 0u);
}

TEST(LanSegment, DetachedNicMissesInFlightFrames) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  int got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  a.transmit(test_frame(b.mac(), a.mac()));
  b.detach();  // detach before delivery event fires
  net.scheduler().run();
  EXPECT_EQ(got, 0);
}

TEST(LanSegment, NicDetachedFromTheDeliverySnapshotIsSkipped) {
  // Multi-receiver variant: the broadcast's delivery walk snapshots b and
  // c at transmit time; c detaches before the event fires and must be
  // skipped while b still receives.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);
  int b_got = 0, c_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });
  c.set_rx_handler([&](const ether::WireFrame&) { ++c_got; });
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  c.detach();
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
}

TEST(LanSegment, ReceiverDetachedMidWalkByAnEarlierHandlerIsNotTouched) {
  // Regression for per-segment delivery: one event walks all receivers, so
  // a handler running for receiver b can detach receiver c INSIDE the same
  // walk -- c must then be skipped, not delivered to.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);
  int b_got = 0, c_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) {
    ++b_got;
    c.detach();
  });
  c.set_rx_handler([&](const ether::WireFrame&) { ++c_got; });
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(c.segment(), nullptr);
}

TEST(LanSegment, NicDestroyedWhileFramesAreInFlightIsNeverTouched) {
  // Destruction (not just detach) between transmit and delivery: the walk
  // must not dereference the dead NIC. Covers both the single-receiver
  // fast path (one live receiver left) and the multi-receiver run.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  int b_got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });
  auto doomed = std::make_unique<Nic>(net.scheduler(), "doomed",
                                      ether::MacAddress{{2, 0, 0, 0, 0, 0x99}});
  doomed->attach(lan);
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  doomed.reset();  // destructor detaches; the snapshot still names it
  net.scheduler().run();
  EXPECT_EQ(b_got, 1);
}

TEST(LanSegment, BroadcastSchedulesOneDeliveryEventPerSegment) {
  // The batched-delivery contract: a broadcast costs one transmit event
  // plus ONE delivery event for the whole segment, independent of the
  // receiver population.
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  constexpr int kReceivers = 50;
  int got = 0;
  for (int i = 0; i < kReceivers; ++i) {
    Nic& rx = net.add_nic("rx" + std::to_string(i), lan);
    rx.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  }
  const std::uint64_t before = net.scheduler().executed();
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac()));
  net.scheduler().run();
  EXPECT_EQ(got, kReceivers);
  // One serialization-done event at the NIC + one delivery walk.
  EXPECT_EQ(net.scheduler().executed() - before, 2u);
}

TEST(LanSegment, InjectRemoteDeliversAtGivenTimeWithoutCountingCarried) {
  // Cross-shard injection: the producing replica counted/taped/relayed the
  // frame at transmit time, so this replica only delivers -- at exactly the
  // producer-computed time, to every attached NIC (no sender to exclude).
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  int a_got = 0, b_got = 0;
  TimePoint at_a{};
  a.set_rx_handler([&](const ether::WireFrame&) { ++a_got; at_a = net.now(); });
  b.set_rx_handler([&](const ether::WireFrame&) { ++b_got; });

  bool relayed = false;
  lan.set_relay([&](TimePoint, const Nic*, util::ByteView) { relayed = true; });

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(40)));
  net.scheduler().run();

  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(at_a, TimePoint(microseconds(40)));
  EXPECT_EQ(lan.stats().frames_carried, 0u);
  EXPECT_EQ(lan.stats().bytes_carried, 0u);
  // A re-relay here would echo the frame back across the cut forever.
  EXPECT_FALSE(relayed);
}

TEST(LanSegment, InjectRemoteDrawsThisReplicasOwnLoss) {
  // Local loss draws still apply to remote frames: this replica's rng,
  // this replica's attach order -- and losses count here, because the
  // producer could not know which consumer-side receivers drop.
  Network net;
  LanConfig cfg;
  cfg.loss = 1.0;
  LanSegment& lan = net.add_segment("lossy-replica", cfg);
  Nic& rx = net.add_nic("rx", lan);
  int got = 0;
  rx.set_rx_handler([&](const ether::WireFrame&) { ++got; });

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(10)));
  net.scheduler().run();

  EXPECT_EQ(got, 0);
  EXPECT_EQ(lan.stats().frames_lost, 1u);
  EXPECT_EQ(lan.stats().frames_carried, 0u);
}

TEST(LanSegment, InjectRemoteSurvivesDetachDrivenCompactionMidFlight) {
  // Shard-teardown regression: a frame drained from a neighbor's mailbox is
  // in flight (snapshot taken) when enough NICs detach -- and are DESTROYED
  // -- to trigger tombstone compaction, which reshuffles nics_ under the
  // snapshot's slot indices. The walk must fall back to membership checks
  // (detach epoch changed) and deliver only to survivors, never touching a
  // compacted-away slot or a dead NIC.
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& survivor = net.add_nic("survivor", lan);
  int got = 0;
  survivor.set_rx_handler([&](const ether::WireFrame&) { ++got; });

  std::vector<std::unique_ptr<Nic>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(std::make_unique<Nic>(
        net.scheduler(), "doomed" + std::to_string(i),
        ether::MacAddress{{2, 0, 0, 0, 0, static_cast<std::uint8_t>(0x50 + i)}}));
    doomed.back()->attach(lan);
  }

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(25)));
  // 3 of 4 slots tombstone: the third detach tips dead*2 > size and
  // compacts, bumping both epochs while the run is still scheduled.
  doomed.clear();
  net.scheduler().run();

  EXPECT_EQ(got, 1);
}

TEST(LanSegment, InjectRemoteSoleReceiverDetachMidFlightIsSafe) {
  // Single-receiver fast path of inject_remote: the one receiver detaches
  // before the delivery event fires; nothing must be delivered or touched.
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  int got = 0;
  rx.set_rx_handler([&](const ether::WireFrame&) { ++got; });

  const ether::WireFrame frame(test_frame(ether::MacAddress::broadcast(),
                                          ether::MacAddress::local(9, 9)));
  lan.inject_remote(frame, TimePoint(microseconds(15)));
  rx.detach();
  net.scheduler().run();

  EXPECT_EQ(got, 0);
}

TEST(FrameTrace, RecordsCarriedFrames) {
  Network net;
  LanSegment& lan = net.add_segment("lan1");
  FrameTrace trace;
  trace.watch(lan);
  Nic& a = net.add_nic("a", lan);
  net.add_nic("b", lan);
  a.transmit(test_frame(ether::MacAddress::broadcast(), a.mac(), 100));
  net.scheduler().run();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.entries()[0].segment, "lan1");
  EXPECT_TRUE(trace.entries()[0].decoded_ok);
  EXPECT_EQ(trace.entries()[0].src, a.mac());
  EXPECT_EQ(trace.count_on("lan1"), 1u);
  EXPECT_EQ(trace.count_on("other"), 0u);
  EXPECT_NE(trace.dump().find("lan1"), std::string::npos);
}

TEST(Network, FindSegmentAndDuplicateNames) {
  Network net;
  net.add_segment("x");
  EXPECT_NE(net.find_segment("x"), nullptr);
  EXPECT_EQ(net.find_segment("y"), nullptr);
  EXPECT_THROW(net.add_segment("x"), std::invalid_argument);
}

TEST(Network, OwnedAndArenaSegmentsShareOneNamespace) {
  Network net;
  Arena arena;  // destroyed first: it must not outlive the scheduler
  LanSegment& owned = net.add_segment("owned");
  LanSegment& pooled = net.add_segment(arena, "pooled");
  EXPECT_EQ(net.find_segment("owned"), &owned);
  EXPECT_EQ(net.find_segment("pooled"), &pooled);
  EXPECT_EQ(net.find_segment("absent"), nullptr);
  // A duplicate is rejected whichever kind holds the name first, and the
  // failed call leaves the original in place.
  EXPECT_THROW(net.add_segment(arena, "owned"), std::invalid_argument);
  EXPECT_THROW(net.add_segment("pooled"), std::invalid_argument);
  EXPECT_THROW(net.add_segment(arena, "pooled"), std::invalid_argument);
  EXPECT_EQ(net.find_segment("owned"), &owned);
  EXPECT_EQ(net.find_segment("pooled"), &pooled);
  EXPECT_EQ(net.segments().size(), 1u);
}

TEST(Network, AutoAssignedMacsAreUnique) {
  Network net;
  LanSegment& lan = net.add_segment("lan");
  Nic& a = net.add_nic("a", lan);
  Nic& b = net.add_nic("b", lan);
  Nic& c = net.add_nic("c", lan);
  EXPECT_NE(a.mac(), b.mac());
  EXPECT_NE(b.mac(), c.mac());
  EXPECT_NE(a.mac(), c.mac());
}

}  // namespace
}  // namespace ab::netsim
