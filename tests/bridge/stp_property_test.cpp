// Property-style sweeps over the spanning tree: for rings and chains of
// varying size, after convergence the invariants must hold --
//
//   * exactly one bridge believes it is root, and all agree on its id;
//   * a ring of N bridges has exactly one Blocked port (one loop to cut);
//     a chain has none;
//   * the network is loop-free: a broadcast injects a bounded number of
//     frames;
//   * the network stays connected: the broadcast reaches every LAN.
#include <gtest/gtest.h>

#include "src/bridge/stp_switchlet.h"
#include "tests/bridge/bridge_test_util.h"

namespace ab::bridge {
namespace {

using testing::RingFixture;

class RingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingProperty, ConvergesLoopFreeAndConnected) {
  const int n = GetParam();
  RingFixture ring(n);
  for (auto& b : ring.bridges) {
    b->load_dumb();
    b->load_learning();
    b->load_ieee();
  }
  ring.sched.run_for(netsim::seconds(45));

  // One root, unanimously agreed.
  std::vector<StpEngine*> engines;
  for (auto& b : ring.bridges) {
    engines.push_back(
        dynamic_cast<StpSwitchlet*>(b->node().loader().find("stp.ieee"))->engine());
  }
  int roots = 0;
  for (auto* e : engines) roots += e->is_root() ? 1 : 0;
  EXPECT_EQ(roots, 1);
  for (auto* e : engines) EXPECT_EQ(e->root_id(), engines[0]->root_id());

  // Exactly one blocked port cuts the single loop.
  EXPECT_EQ(ring.count_gates(PortGate::kBlocked), 1);
  EXPECT_EQ(ring.count_gates(PortGate::kForwarding), 2 * n - 1);

  // Loop-free AND connected: one broadcast reaches every LAN a bounded
  // number of times.
  ring.trace.clear();
  auto& probe = ring.topo.add_station_nic("probe", 0);
  probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                         ether::EtherType::kExperimental, {1}));
  ring.sched.run_for(netsim::seconds(1));
  for (int i = 0; i < n; ++i) {
    const std::string lan = "lan" + std::to_string(i);
    EXPECT_GE(ring.trace.count_on(lan), 1u) << lan << " unreachable";
    EXPECT_LE(ring.trace.count_on(lan), 3u) << lan << " saw duplicate floods";
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingProperty, ::testing::Values(2, 3, 4, 5, 6));

class ChainProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChainProperty, NoPortBlockedOnALoopFreeTopology) {
  const int n = GetParam();
  // A chain: lan0 - B0 - lan1 - B1 - ... - lan[n], via the line shape.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kLine;
  spec.nodes = n;
  auto chain = build_sharded_topology(spec, 1);
  netsim::Scheduler& sched = chain.regions.front()->net.scheduler();
  const auto& lans = chain.shape.lans;
  sched.run_for(netsim::seconds(45));

  EXPECT_EQ(chain.count_gates(PortGate::kBlocked), 0);  // nothing to cut on a tree
  EXPECT_TRUE(chain.stp_converged());

  // End-to-end connectivity along the whole chain.
  netsim::FrameTrace trace;
  trace.watch(*lans.back());
  auto& probe = chain.add_station_nic("probe", 0);
  probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                         ether::EtherType::kExperimental, {1}));
  sched.run_for(netsim::seconds(1));
  EXPECT_EQ(trace.count_on("lan" + std::to_string(n)), 1u);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, ChainProperty, ::testing::Values(1, 2, 4, 6));

class PrioritySweep : public ::testing::TestWithParam<int> {};

TEST_P(PrioritySweep, ConfiguredPriorityDeterminesTheRoot) {
  // Give bridge[k] the lowest priority: it must win the election even
  // though its MAC would not.
  const int chosen = GetParam();
  RingFixture ring(3);
  int i = 0;
  for (auto& b : ring.bridges) {
    StpConfig stp;
    stp.priority = (i == chosen) ? 0x1000 : 0x8000;
    auto plane = b->plane_ptr();
    b->load_dumb();
    b->load_learning();
    ASSERT_TRUE(b->node().loader().load_instance(make_ieee_stp(plane, stp)));
    ++i;
  }
  ring.sched.run_for(netsim::seconds(45));
  for (int k = 0; k < 3; ++k) {
    auto* e = dynamic_cast<StpSwitchlet*>(
                  ring.bridges[static_cast<std::size_t>(k)]->node().loader().find(
                      "stp.ieee"))
                  ->engine();
    EXPECT_EQ(e->is_root(), k == chosen) << "bridge " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(EachBridge, PrioritySweep, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace ab::bridge
