// Teardown and lifetime safety of arena-owned bridge infrastructure: port
// NICs and LAN segments living in a cell arena (per region when sharded)
// instead of per-object heap nodes. The bridges' MAC tables stay on the
// heap. The netsim mirror of these tests (tests/netsim/arena_test.cpp)
// covers station NICs; here the arena additionally owns the segments and
// the bridge ports, and the in-flight state spans ports: a TxBatch run
// started by a flood holds frames for several port NICs at once when the
// arena dies.
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
  // A hand-assembled two-LAN bridge whose segments and port NICs ALL live
  // in one arena -- the exact ownership layout the topology builder
  // produces per region. Declaration order is the teardown contract:
  // net outlives the arena (its scheduler never runs again after the arena
  // dies), and the BridgeNode shell, declared last, is destroyed first so
  // its port-table unbind still finds live NICs.
  netsim::Network net;
  netsim::Arena arena;
  netsim::LanSegment& lan_a = net.add_segment(arena, "lan_a");
  netsim::LanSegment& lan_b = net.add_segment(arena, "lan_b");

  BridgeNodeConfig cfg;
  cfg.name = "b0";
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
  EXPECT_EQ(learning->table().size(), 1u);  // a's MAC
  EXPECT_GT(arena.stats().bytes_reserved, 0u);
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
    for (std::size_t h = 0; h < topo.host_count(); ++h) {
      netsim::Nic& nic = topo.host(h).nic();
      std::vector<ether::WireFrame> burst;
      for (int i = 0; i < 8; ++i) burst.emplace_back(bcast(nic.mac()));
      nic.transmit_burst(burst);
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
    for (std::size_t h = 0; h < topo.host_count(); ++h) {
      netsim::Nic& nic = topo.host(h).nic();
      std::vector<ether::WireFrame> burst;
      for (int i = 0; i < 4; ++i) burst.emplace_back(bcast(nic.mac()));
      nic.transmit_burst(burst);
    }
  }
}

}  // namespace
}  // namespace ab::bridge
