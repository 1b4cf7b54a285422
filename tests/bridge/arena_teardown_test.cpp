// Teardown and lifetime safety of arena-owned bridge infrastructure: port
// NICs, LAN segments, and MAC-table slot storage living in a cell arena
// (per region when sharded) instead of per-object heap nodes. The netsim
// mirror of these tests (tests/netsim/arena_test.cpp) covers station NICs;
// here the arena additionally owns the segments and the bridge side, and
// the in-flight state spans ports: a TxBatch run started by a flood holds
// frames for several port NICs at once when the arena dies.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/bridge/learning.h"
#include "src/bridge/sharded_topology.h"
#include "src/netsim/parallel_runner.h"

namespace ab::bridge {
namespace {

ether::Frame bcast(ether::MacAddress src) {
  return ether::Frame::ethernet2(ether::MacAddress::broadcast(), src,
                                 ether::EtherType::kExperimental,
                                 util::ByteBuffer(64, 0x5A));
}

TEST(BridgeArena, ArenaOwnedBridgeInfrastructureCarriesTraffic) {
  // A hand-assembled two-LAN bridge whose segments, port NICs, and
  // MAC-table slabs ALL live in one arena -- the exact ownership layout
  // build_topology and the sharded builder produce. Declaration order is
  // the teardown contract: net outlives the arena (its scheduler never
  // runs again after the arena dies), and the BridgeNode shell, declared
  // last, is destroyed first so its port-table unbind still finds live
  // NICs.
  netsim::Network net;
  netsim::Arena arena;
  netsim::LanSegment& lan_a = net.add_segment(arena, "lan_a");
  netsim::LanSegment& lan_b = net.add_segment(arena, "lan_b");

  BridgeNodeConfig cfg;
  cfg.name = "b0";
  cfg.arena = &arena;
  auto bridge = std::make_unique<BridgeNode>(net.scheduler(), std::move(cfg));
  bridge->add_port(net.add_nic(arena, "b0.eth0", lan_a));
  bridge->add_port(net.add_nic(arena, "b0.eth1", lan_b));
  bridge->load_dumb();
  LearningBridgeSwitchlet* learning = bridge->load_learning();

  netsim::Nic& a = net.add_nic(arena, "a", lan_a);
  netsim::Nic& b = net.add_nic(arena, "b", lan_b);
  int got = 0;
  b.set_rx_handler([&](const ether::WireFrame&) { ++got; });
  a.transmit(bcast(a.mac()));
  // Bounded: an unbounded run() would drain through the learning
  // switchlet's expiry sweeps until the entry ages out and the assertion
  // below would see an (correctly) empty table.
  net.scheduler().run_for(netsim::seconds(1));

  EXPECT_EQ(got, 1);
  EXPECT_EQ(learning->table().size(), 1u);  // a's MAC, learned via the slab
  EXPECT_GT(arena.stats().bytes_reserved, 0u);
}

TEST(BridgeArena, MacTableSlotStorageGrowsInArena) {
  // Growth rebuilds the slot array from arena memory; the retired
  // generation's buffer is intentionally NOT freed until arena teardown
  // (bounded by geometric growth). Entries must survive several
  // generations of that.
  netsim::Arena arena;
  MacTable table(netsim::seconds(300), netsim::seconds(15), &arena);
  const netsim::TimePoint now{};
  for (std::uint32_t i = 1; i <= 1000; ++i) {
    table.learn(ether::MacAddress::local(0, i),
                static_cast<active::PortId>(i % 4), now);
  }
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_GE(table.capacity(), 2048u);  // load factor < 1/2 after growth
  EXPECT_GT(arena.stats().bytes_reserved, 0u);
  for (std::uint32_t i = 1; i <= 1000; ++i) {
    const auto port = table.lookup(ether::MacAddress::local(0, i), now);
    ASSERT_TRUE(port.has_value()) << i;
    EXPECT_EQ(*port, static_cast<active::PortId>(i % 4)) << i;
  }
}

TEST(BridgeArena, ShardedRegionTeardownMidFloodIsSafe) {
  // Destroy a whole sharded cell while broadcast floods are mid-flight:
  // TxBatch runs hold queued frames spanning every port of the bridges,
  // mirror replicas of the cut hub LAN have deliveries pending in both
  // regions, and cross-region frames sit in the relay mailboxes. Region
  // teardown order (hosts, bridges, then the arena's reverse walk --
  // station NICs, port NICs, segments last -- then the scheduler) must
  // leave nothing dangling; sanitizer builds validate.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 3;
  spec.hosts_per_lan = 2;
  TopologyBuildOptions opts;
  opts.stp = false;  // gates stay forwarding: floods span ports immediately

  {
    ShardedTopology topo = build_sharded_topology(spec, 2, {}, opts);
    for (stack::HostStack* h : topo.hosts) {
      std::vector<ether::WireFrame> burst;
      for (int i = 0; i < 8; ++i) burst.emplace_back(bcast(h->nic().mac()));
      h->nic().transmit_burst(burst);
    }
    netsim::ParallelRunner::Options ropts;
    ropts.threads = 2;
    ropts.lookahead = topo.plan.lookahead;
    netsim::ParallelRunner runner(topo.shard_handles(), ropts);
    // A few microseconds: less than one frame's serialization, so every
    // burst still holds frames when the cell dies here.
    runner.run_for(netsim::microseconds(20));
  }

  // And again with the run stopped at time zero: nothing ever executed,
  // every scheduled entry still queued at teardown.
  {
    ShardedTopology topo = build_sharded_topology(spec, 2, {}, opts);
    for (stack::HostStack* h : topo.hosts) {
      std::vector<ether::WireFrame> burst;
      for (int i = 0; i < 4; ++i) burst.emplace_back(bcast(h->nic().mac()));
      h->nic().transmit_burst(burst);
    }
  }
}

}  // namespace
}  // namespace ab::bridge
