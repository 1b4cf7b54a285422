// Units for the sharded parallel core: the ShardChannel mailbox, Shard
// drain ordering, and the ParallelRunner's conservative windows --
// including the thread-count independence property on synthetic shards
// and bursts relayed across a cut at 1 and 2 threads.
#include "src/netsim/shard.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/netsim/parallel_runner.h"

namespace ab::netsim {
namespace {

ether::Frame test_frame(std::size_t payload_len = 64) {
  return ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                 ether::MacAddress::local(7, 1),
                                 ether::EtherType::kExperimental,
                                 util::ByteBuffer(payload_len, 0x33));
}

// ------------------------------------------------------------- ShardChannel

TEST(ShardChannel, DrainInjectsIntoTargetAtProducerComputedTimes) {
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  std::vector<TimePoint> delivered;
  rx.set_rx_handler([&](const ether::WireFrame&) { delivered.push_back(net.now()); });

  ShardChannel channel(lan);
  const ether::WireFrame wire(test_frame());
  channel.push(TimePoint(microseconds(10)), wire.wire());
  channel.push(TimePoint(microseconds(20)), wire.wire());

  EXPECT_EQ(channel.drain(), 2u);
  net.scheduler().run();

  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], TimePoint(microseconds(10)));
  EXPECT_EQ(delivered[1], TimePoint(microseconds(20)));
  // Remote frames are counted at the producer's replica, never here.
  EXPECT_EQ(lan.stats().frames_carried, 0u);
  EXPECT_EQ(lan.stats().bytes_carried, 0u);
}

TEST(ShardChannel, SameTimeFramesArriveInPushOrderAndDrainEmptiesIt) {
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  std::vector<std::size_t> sizes;
  rx.set_rx_handler(
      [&](const ether::WireFrame& f) { sizes.push_back(f.wire_size()); });

  ShardChannel channel(lan);
  constexpr std::size_t kFrames = 64;
  const TimePoint at(microseconds(5));
  for (std::size_t i = 0; i < kFrames; ++i) {
    const ether::WireFrame wire(test_frame(100 + i));  // distinct wire sizes
    channel.push(at, wire.wire());
  }

  EXPECT_EQ(channel.drain(), kFrames);
  EXPECT_EQ(channel.drain(), 0u);  // the first drain took every frame
  net.scheduler().run();

  // Same timestamp throughout, so delivery order IS injection order.
  ASSERT_EQ(sizes.size(), kFrames);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[i - 1] + 1) << "frame " << i << " out of order";
  }
}

// -------------------------------------------------------------------- Shard

TEST(Shard, DrainsInboundChannelsInRegistrationOrder) {
  Network net;
  LanSegment& lan = net.add_segment("replica");
  Nic& rx = net.add_nic("rx", lan);
  std::vector<std::size_t> sizes;
  rx.set_rx_handler(
      [&](const ether::WireFrame& f) { sizes.push_back(f.wire_size()); });

  ShardChannel first(lan);
  ShardChannel second(lan);
  Shard shard(net.scheduler());
  shard.add_inbound(first);
  shard.add_inbound(second);
  ASSERT_EQ(shard.inbound().size(), 2u);

  // Push into `second` before `first`; the drain must still visit `first`
  // first -- registration order, not push order, is the contract.
  const TimePoint at(microseconds(5));
  second.push(at, ether::WireFrame(test_frame(101)).wire());
  first.push(at, ether::WireFrame(test_frame(100)).wire());

  EXPECT_EQ(shard.drain(), 2u);
  net.scheduler().run();

  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], ether::WireFrame(test_frame(100)).wire_size());
  EXPECT_EQ(sizes[1], ether::WireFrame(test_frame(101)).wire_size());
}

// ----------------------------------------------------------- ParallelRunner

TEST(ParallelRunner, RejectsEmptyOrNullShards) {
  EXPECT_THROW(ParallelRunner({}, {}), std::invalid_argument);

  Network net;
  Shard shard(net.scheduler());
  EXPECT_THROW(ParallelRunner({&shard, nullptr}, {}), std::invalid_argument);
}

TEST(ParallelRunner, NoLookaheadCollapsesToOneWindow) {
  Network a, b;
  Shard sa(a.scheduler()), sb(b.scheduler());
  int fired = 0;
  a.scheduler().schedule_at(TimePoint(microseconds(10)), [&] { ++fired; });
  b.scheduler().schedule_at(TimePoint(microseconds(700)), [&] { ++fired; });

  ParallelRunner runner({&sa, &sb}, {.threads = 1, .lookahead = Duration::zero()});
  runner.run_until(TimePoint(milliseconds(1)));

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(runner.rounds(), 1u);
  EXPECT_EQ(a.now(), TimePoint(milliseconds(1)));
  EXPECT_EQ(b.now(), TimePoint(milliseconds(1)));
}

TEST(ParallelRunner, ConservativeWindowsBoundEachRoundByLookahead) {
  Network a, b;
  Shard sa(a.scheduler()), sb(b.scheduler());

  // Shard a ticks every 10us, rescheduling itself from inside each tick.
  std::vector<TimePoint> ticks;
  struct Ticker {
    Scheduler* sched;
    std::vector<TimePoint>* out;
    void arm(TimePoint at) {
      if (at > TimePoint(microseconds(100))) return;
      sched->schedule_at(at, [this, at] {
        out->push_back(at);
        arm(at + microseconds(10));
      });
    }
  } ticker{&a.scheduler(), &ticks};
  ticker.arm(TimePoint(microseconds(10)));

  ParallelRunner runner({&sa, &sb},
                        {.threads = 1, .lookahead = microseconds(10)});
  runner.run_until(TimePoint(microseconds(100)));

  ASSERT_EQ(ticks.size(), 10u);
  // With Tmin stepping 10us per tick and a 10us lookahead, every window can
  // hold at most one tick, so at least 10 rounds were needed.
  EXPECT_GE(runner.rounds(), 10u);
  EXPECT_EQ(a.now(), TimePoint(microseconds(100)));
  EXPECT_EQ(b.now(), TimePoint(microseconds(100)));

  // run_until is repeatable: the next call picks up exactly where this one
  // stopped, and an event at exactly the target time executes.
  bool edge = false;
  b.scheduler().schedule_at(TimePoint(microseconds(200)), [&] { edge = true; });
  runner.run_until(TimePoint(microseconds(200)));
  EXPECT_TRUE(edge);
  EXPECT_EQ(b.now(), TimePoint(microseconds(200)));
}

// One synthetic cell: `n` shards, shard k ticking every (k+1)*3us up to
// 300us, each recording its firing times into its own (per-shard, so
// race-free) trace. Built fresh per run so thread counts can be compared.
struct SyntheticCell {
  std::vector<std::unique_ptr<Network>> nets;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<TimePoint>> traces;

  explicit SyntheticCell(int n) : traces(static_cast<std::size_t>(n)) {
    for (int k = 0; k < n; ++k) {
      nets.push_back(std::make_unique<Network>());
      shards.push_back(std::make_unique<Shard>(nets.back()->scheduler()));
      arm(k, TimePoint(microseconds(k + 1) * 3));
    }
  }

  void arm(int k, TimePoint at) {
    if (at > TimePoint(microseconds(300))) return;
    nets[static_cast<std::size_t>(k)]->scheduler().schedule_at(at, [this, k, at] {
      traces[static_cast<std::size_t>(k)].push_back(at);
      arm(k, at + microseconds(k + 1) * 3);
    });
  }

  [[nodiscard]] std::vector<Shard*> handles() {
    std::vector<Shard*> out;
    for (auto& s : shards) out.push_back(s.get());
    return out;
  }
};

TEST(ParallelRunner, ThreadCountDoesNotChangeExecutionOrRoundStructure) {
  constexpr int kShards = 4;
  std::vector<std::vector<TimePoint>> reference;
  std::uint64_t reference_rounds = 0;

  for (const int threads : {1, 2, 4, 8}) {
    SyntheticCell cell(kShards);
    ParallelRunner runner(cell.handles(),
                          {.threads = threads, .lookahead = microseconds(2)});
    runner.run_until(TimePoint(milliseconds(1)));

    for (int k = 0; k < kShards; ++k) {
      EXPECT_EQ(cell.nets[static_cast<std::size_t>(k)]->now(),
                TimePoint(milliseconds(1)));
    }
    if (threads == 1) {
      reference = cell.traces;
      reference_rounds = runner.rounds();
      ASSERT_EQ(reference[0].size(), 100u);  // 3us ticks through 300us
    } else {
      EXPECT_EQ(cell.traces, reference) << "threads=" << threads;
      EXPECT_EQ(runner.rounds(), reference_rounds) << "threads=" << threads;
    }
  }
}

// End-to-end miniature of the real wiring: two single-NIC regions joined by
// one cut segment. Region A's replica relays each local transmission into
// the channel; region B injects it at the producer-computed delivery time.
// A 16-frame burst of distinct sizes puts several frames into the channel
// per round (each ~6-8us of serialization against a 50us lookahead).
TEST(ParallelRunner, RelaysFramesAcrossShardsThroughChannels) {
  for (const std::size_t burst : {std::size_t{1}, std::size_t{16}}) {
    for (const int threads : {1, 2}) {
      Network net_a, net_b;
      LanSegment& lan_a = net_a.add_segment("cut");
      LanSegment& lan_b = net_b.add_segment("cut");
      Nic& tx = net_a.add_nic("tx", lan_a);
      Nic& rx = net_b.add_nic("rx", lan_b);

      std::vector<std::pair<TimePoint, std::size_t>> delivered;  ///< time, wire size
      rx.set_rx_handler([&](const ether::WireFrame& f) {
        delivered.emplace_back(net_b.now(), f.wire_size());
      });

      Shard shard_a(net_a.scheduler()), shard_b(net_b.scheduler());
      ShardChannel channel(lan_b);
      shard_b.add_inbound(channel);
      const Duration prop = microseconds(50);
      lan_a.set_relay([&channel, prop](TimePoint now, const Nic*,
                                       util::ByteView wire) {
        channel.push(now + prop, wire);
      });

      // Frame i is back to back behind frame i-1: it arrives at the end of
      // its own serialization plus the propagation delay.
      std::vector<ether::WireFrame> frames;
      std::vector<std::pair<TimePoint, std::size_t>> expected;
      TimePoint serialized{};
      for (std::size_t i = 0; i < burst; ++i) {
        frames.emplace_back(test_frame(64 + i));
        const std::size_t size = frames.back().wire_size();
        serialized += lan_a.serialization_delay(size);
        expected.emplace_back(serialized + prop, size);
      }
      net_a.scheduler().schedule_at(TimePoint{}, [&] {
        EXPECT_EQ(tx.transmit_burst(frames), burst);
      });

      ParallelRunner runner({&shard_a, &shard_b},
                            {.threads = threads, .lookahead = prop});
      runner.run_until(TimePoint(milliseconds(1)));

      const std::string at = "burst=" + std::to_string(burst) +
                             " threads=" + std::to_string(threads);
      EXPECT_EQ(delivered, expected) << at;
      // Carried stats belong to the producing replica alone.
      EXPECT_EQ(lan_a.stats().frames_carried, burst) << at;
      EXPECT_EQ(lan_b.stats().frames_carried, 0u) << at;
    }
  }
}

}  // namespace
}  // namespace ab::netsim
