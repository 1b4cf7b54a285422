// Spanning-tree engine and switchlet behaviour, from single-bridge timers
// to multi-bridge election and reconvergence.
#include "src/bridge/stp.h"

#include <gtest/gtest.h>

#include "src/bridge/stp_switchlet.h"
#include "tests/bridge/bridge_test_util.h"

namespace ab::bridge {
namespace {

using testing::RingFixture;
using testing::TwoLanFixture;

void load_full(BridgeNode& b) {
  b.load_dumb();
  b.load_learning();
  b.load_ieee();
}

TEST(StpEngine, SingleBridgeBecomesRootAndForwardsAfterTwoForwardDelays) {
  TwoLanFixture f;
  load_full(*f.bridge);
  auto* stp = dynamic_cast<StpSwitchlet*>(f.bridge->node().loader().find("stp.ieee"));
  ASSERT_NE(stp, nullptr);

  // During the configuration phase ports are not forwarding.
  f.sched.run_for(netsim::seconds(1));
  EXPECT_TRUE(stp->engine()->is_root());
  EXPECT_EQ(stp->engine()->port_state(0), StpPortState::kListening);
  EXPECT_EQ(f.bridge->plane().gate(0), PortGate::kBlocked);

  f.sched.run_for(netsim::seconds(15));
  EXPECT_EQ(stp->engine()->port_state(0), StpPortState::kLearning);
  EXPECT_EQ(f.bridge->plane().gate(0), PortGate::kLearning);

  f.sched.run_for(netsim::seconds(15));
  EXPECT_EQ(stp->engine()->port_state(0), StpPortState::kForwarding);
  EXPECT_EQ(stp->engine()->port_state(1), StpPortState::kForwarding);
  EXPECT_EQ(f.bridge->plane().gate(0), PortGate::kForwarding);
}

TEST(StpEngine, TrafficBlockedDuringConfigurationPhase) {
  TwoLanFixture f;
  load_full(*f.bridge);
  int replies = 0;
  f.host_a->set_echo_handler([&](const stack::HostStack::EchoReply&) { ++replies; });
  f.host_a->send_echo_request(f.host_b->ip(), 1, 1, {});
  f.sched.run_for(netsim::seconds(5));
  EXPECT_EQ(replies, 0);  // ports still listening
  // After convergence, traffic flows.
  f.sched.run_for(netsim::seconds(30));
  f.host_a->send_echo_request(f.host_b->ip(), 1, 2, {});
  f.sched.run_for(netsim::seconds(3));
  EXPECT_EQ(replies, 1);
}

TEST(StpEngine, LowestBridgeIdWinsElection) {
  RingFixture ring(3);
  for (auto& b : ring.bridges) load_full(*b);
  ring.sched.run_for(netsim::seconds(45));

  std::vector<StpEngine*> engines;
  for (auto& b : ring.bridges) {
    auto* stp = dynamic_cast<StpSwitchlet*>(b->node().loader().find("stp.ieee"));
    engines.push_back(stp->engine());
  }
  // All agree on one root.
  const BridgeId root = engines[0]->root_id();
  for (auto* e : engines) EXPECT_EQ(e->root_id(), root);
  // The root is the minimum bridge id.
  BridgeId min_id = engines[0]->bridge_id();
  for (auto* e : engines) min_id = std::min(min_id, e->bridge_id());
  EXPECT_EQ(root, min_id);
  // Exactly one bridge believes it is root.
  int roots = 0;
  for (auto* e : engines) roots += e->is_root() ? 1 : 0;
  EXPECT_EQ(roots, 1);
}

TEST(StpEngine, RingConvergesWithExactlyOneBlockedPort) {
  RingFixture ring(3);
  for (auto& b : ring.bridges) load_full(*b);
  ring.sched.run_for(netsim::seconds(45));
  // 6 bridge ports on a 3-ring: a spanning tree keeps 5 forwarding and
  // blocks exactly 1.
  EXPECT_EQ(ring.count_gates(PortGate::kBlocked), 1);
  EXPECT_EQ(ring.count_gates(PortGate::kForwarding), 5);
}

TEST(StpEngine, RingCarriesTrafficWithoutLoops) {
  RingFixture ring(3);
  for (auto& b : ring.bridges) load_full(*b);
  ring.sched.run_for(netsim::seconds(45));

  // A host on lan0 pings a host on lan1; the frame count must stay finite
  // and the ping must succeed.
  stack::HostConfig ha;
  ha.ip = stack::Ipv4Addr(10, 0, 0, 1);
  stack::HostStack host_a(ring.sched, ring.topo.add_station_nic("hostA", 0), ha);
  stack::HostConfig hb;
  hb.ip = stack::Ipv4Addr(10, 0, 0, 2);
  stack::HostStack host_b(ring.sched, ring.topo.add_station_nic("hostB", 1), hb);
  int replies = 0;
  host_a.set_echo_handler([&](const stack::HostStack::EchoReply&) { ++replies; });
  ring.trace.clear();
  host_a.send_echo_request(host_b.ip(), 1, 1, {});
  ring.sched.run_for(netsim::seconds(2));
  EXPECT_EQ(replies, 1);
  // Finite frame count: no storm. (Storm would be thousands of frames.)
  EXPECT_LT(ring.trace.size(), 60u);
}

TEST(StpEngine, WithoutSpanningTreeTheRingStorms) {
  // The ablation the paper motivates: a loop plus flooding means a single
  // broadcast multiplies without bound.
  RingFixture ring(3);
  for (auto& b : ring.bridges) {
    b->load_dumb();
    b->load_learning();  // learning alone cannot prevent loops
  }
  auto& probe = ring.topo.add_station_nic("probe", 0);
  probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                         ether::EtherType::kExperimental, {1}));
  ring.sched.run_for(netsim::milliseconds(100));
  // One broadcast became a storm.
  EXPECT_GT(ring.trace.size(), 500u);
}

TEST(StpEngine, ReconvergesAfterRootFailure) {
  RingFixture ring(3);
  for (auto& b : ring.bridges) load_full(*b);
  ring.sched.run_for(netsim::seconds(45));

  std::vector<StpEngine*> engines;
  for (auto& b : ring.bridges) {
    engines.push_back(
        dynamic_cast<StpSwitchlet*>(b->node().loader().find("stp.ieee"))->engine());
  }
  // Find and kill the root (stop its STP; detach is not needed -- silence
  // is what max age detects).
  int root_index = -1;
  for (int i = 0; i < 3; ++i) {
    if (engines[static_cast<std::size_t>(i)]->is_root()) root_index = i;
  }
  ASSERT_GE(root_index, 0);
  ring.bridges[static_cast<std::size_t>(root_index)]->node().loader().stop("stp.ieee");

  // Within max_age + 2*forward_delay the survivors elect a new root.
  ring.sched.run_for(netsim::seconds(60));
  const int a = (root_index + 1) % 3, b = (root_index + 2) % 3;
  EXPECT_EQ(engines[static_cast<std::size_t>(a)]->root_id(),
            engines[static_cast<std::size_t>(b)]->root_id());
  EXPECT_NE(engines[static_cast<std::size_t>(a)]->root_id(),
            engines[static_cast<std::size_t>(root_index)]->bridge_id());
  EXPECT_GT(engines[static_cast<std::size_t>(a)]->stats().info_expiries +
                engines[static_cast<std::size_t>(b)]->stats().info_expiries,
            0u);
}

TEST(StpEngine, SnapshotSameTreeSemantics) {
  StpSnapshot a;
  a.bridge = BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  a.root = BridgeId{0x8000, ether::MacAddress::local(9, 0)};
  a.root_port = 1;
  a.ports = {{0, StpPortRole::kDesignated, StpPortState::kForwarding},
             {1, StpPortRole::kRoot, StpPortState::kForwarding}};
  StpSnapshot b = a;
  // States may differ transiently; roles define the tree.
  b.ports[0].state = StpPortState::kListening;
  EXPECT_TRUE(a.same_tree(b));
  b.ports[0].role = StpPortRole::kBlocked;
  EXPECT_FALSE(a.same_tree(b));
  b = a;
  b.root_port = 0;
  EXPECT_FALSE(a.same_tree(b));
  b = a;
  b.root = BridgeId{0x8000, ether::MacAddress::local(8, 0)};
  EXPECT_FALSE(a.same_tree(b));
}

TEST(StpEngine, DecVariantBuildsTheSameTree) {
  // The engine is codec-agnostic: a DEC-framed ring converges identically.
  RingFixture ring(3);
  for (auto& b : ring.bridges) {
    b->load_dumb();
    b->load_learning();
    b->load_dec();
  }
  ring.sched.run_for(netsim::seconds(45));
  EXPECT_EQ(ring.count_gates(PortGate::kBlocked), 1);
  EXPECT_EQ(ring.count_gates(PortGate::kForwarding), 5);
}

TEST(StpEngine, IeeeIgnoresDecFramesAndViceVersa) {
  // Run IEEE on the bridge while a rogue node babbles DEC BPDUs: the IEEE
  // switchlet must not be confused (they do not even share an address).
  TwoLanFixture f;
  load_full(*f.bridge);
  auto& rogue = f.topo.add_station_nic("rogue", 0);
  DecBpduCodec dec;
  Bpdu fake;
  fake.root = BridgeId{0, ether::MacAddress::local(0, 1)};  // "best" root ever
  fake.bridge = fake.root;
  for (int i = 0; i < 5; ++i) rogue.transmit(dec.encode(fake, rogue.mac()));
  f.sched.run_for(netsim::seconds(45));
  auto* stp = dynamic_cast<StpSwitchlet*>(f.bridge->node().loader().find("stp.ieee"));
  EXPECT_TRUE(stp->engine()->is_root());  // unimpressed by DEC chatter
}

TEST(StpEngine, UndecodableGroupTrafficIsCounted) {
  TwoLanFixture f;
  load_full(*f.bridge);
  auto& rogue = f.topo.add_station_nic("rogue", 0);
  // Garbage LLC frame to the All Bridges address.
  rogue.transmit(ether::Frame::llc_frame(ether::MacAddress::all_bridges(), rogue.mac(),
                                         ether::LlcHeader::spanning_tree(),
                                         {0xDE, 0xAD}));
  f.sched.run_for(netsim::seconds(1));
  auto* stp = dynamic_cast<StpSwitchlet*>(f.bridge->node().loader().find("stp.ieee"));
  EXPECT_EQ(stp->undecodable_frames(), 1u);
}

TEST(StpEngine, RequiresDumbBridgeFirst) {
  TwoLanFixture f;
  // STP before the dumb bridge: no ports in the plane -> start fails and
  // the loader contains it.
  auto loaded = f.bridge->node().loader().load_instance(
      make_ieee_stp(f.bridge->plane_ptr()));
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(f.bridge->node().loader().stats().load_failures, 1u);
}

TEST(StpEngine, StopFreezesGates) {
  RingFixture ring(3);
  for (auto& b : ring.bridges) load_full(*b);
  ring.sched.run_for(netsim::seconds(45));
  const int blocked_before = ring.count_gates(PortGate::kBlocked);
  for (auto& b : ring.bridges) b->node().loader().stop("stp.ieee");
  ring.sched.run_for(netsim::seconds(60));
  // Gates unchanged: the data plane keeps the last safe tree.
  EXPECT_EQ(ring.count_gates(PortGate::kBlocked), blocked_before);
}

TEST(StpEngine, TopologyChangeTriggersFastAging) {
  RingFixture ring(3);
  for (auto& b : ring.bridges) load_full(*b);
  ring.sched.run_for(netsim::seconds(45));
  // Stop the root: survivors see expiry, roles change, ports re-walk the
  // ladder, and topology-change signalling flips fast aging somewhere.
  for (auto& b : ring.bridges) {
    auto* e = dynamic_cast<StpSwitchlet*>(b->node().loader().find("stp.ieee"))->engine();
    if (e->is_root()) {
      b->node().loader().stop("stp.ieee");
      break;
    }
  }
  ring.sched.run_for(netsim::seconds(90));
  std::uint64_t tc_events = 0;
  for (auto& b : ring.bridges) {
    auto* e = dynamic_cast<StpSwitchlet*>(b->node().loader().find("stp.ieee"))->engine();
    tc_events += e->stats().topology_changes;
  }
  EXPECT_GT(tc_events, 0u);
}

}  // namespace
}  // namespace ab::bridge
