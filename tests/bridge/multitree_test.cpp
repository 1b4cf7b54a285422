// The section 9 extension: Sincoskie-Cotton multiple spanning trees.
#include "src/bridge/multitree.h"

#include <gtest/gtest.h>

#include <set>

#include "src/apps/ping.h"
#include "tests/bridge/bridge_test_util.h"

namespace ab::bridge {
namespace {

using testing::RingFixture;
using testing::TwoLanFixture;

TEST(MultiTreeBpduCodec, RoundTrip) {
  Bpdu b;
  b.root = BridgeId{0x2345, ether::MacAddress::local(1, 0)};
  b.bridge = BridgeId{0x3456, ether::MacAddress::local(2, 0)};
  b.root_path_cost = 57;
  b.port_id = 0x8003;
  const ether::Frame frame =
      MultiTreeBpduCodec::encode(5, b, ether::MacAddress::local(2, 0));
  EXPECT_EQ(frame.dst, MultiTreeBpduCodec::group_address());
  const auto back = MultiTreeBpduCodec::decode(frame);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back->tree, 5);
  EXPECT_EQ(back->bpdu.root, b.root);
  EXPECT_EQ(back->bpdu.bridge, b.bridge);
  EXPECT_EQ(back->bpdu.root_path_cost, 57u);
}

TEST(MultiTreeBpduCodec, TcnRoundTripAndRejects) {
  Bpdu tcn;
  tcn.type = BpduType::kTcn;
  const auto back = MultiTreeBpduCodec::decode(
      MultiTreeBpduCodec::encode(2, tcn, ether::MacAddress::local(1, 0)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bpdu.type, BpduType::kTcn);

  // Not our EtherType / truncated payloads.
  EXPECT_FALSE(MultiTreeBpduCodec::decode(
                   ether::Frame::ethernet2(MultiTreeBpduCodec::group_address(),
                                           ether::MacAddress::local(1, 0),
                                           ether::EtherType::kIpv4, {1, 2, 3}))
                   .has_value());
  ether::Frame truncated = MultiTreeBpduCodec::encode(
      0, Bpdu{}, ether::MacAddress::local(1, 0));
  truncated.payload.resize(4);
  EXPECT_FALSE(MultiTreeBpduCodec::decode(truncated).has_value());
}

TEST(MultiTreeSwitchlet, ConfigValidation) {
  auto plane = std::make_shared<ForwardingPlane>();
  EXPECT_THROW(MultiTreeSwitchlet(nullptr, {}), std::invalid_argument);
  MultiTreeConfig zero;
  zero.trees = 0;
  EXPECT_THROW(MultiTreeSwitchlet(plane, zero), std::invalid_argument);
  MultiTreeConfig many;
  many.trees = 17;
  EXPECT_THROW(MultiTreeSwitchlet(plane, many), std::invalid_argument);
}

TEST(MultiTreeSwitchlet, RequiresDumbBridgeFirst) {
  TwoLanFixture f;
  auto loaded = f.bridge->node().loader().load_instance(
      std::make_unique<MultiTreeSwitchlet>(f.bridge->plane_ptr(), MultiTreeConfig{}));
  EXPECT_FALSE(loaded.has_value());
}

struct MultiRing {
  RingFixture ring;
  std::vector<MultiTreeSwitchlet*> switchlets;

  explicit MultiRing(int n = 3, int trees = 4) : ring(n) {
    for (auto& b : ring.bridges) {
      b->load_dumb();
      MultiTreeConfig cfg;
      cfg.trees = trees;
      switchlets.push_back(b->load_multitree(cfg));
    }
    ring.sched.run_for(netsim::seconds(45));
  }
};

TEST(MultiTreeSwitchlet, EveryTreeConvergesToOneRoot) {
  MultiRing m;
  for (int t = 0; t < 4; ++t) {
    std::set<std::uint64_t> roots;
    int claimed = 0;
    for (auto* sw : m.switchlets) {
      roots.insert(sw->engine(t)->root_id().value());
      claimed += sw->engine(t)->is_root() ? 1 : 0;
    }
    EXPECT_EQ(roots.size(), 1u) << "tree " << t;
    EXPECT_EQ(claimed, 1) << "tree " << t;
  }
}

TEST(MultiTreeSwitchlet, TreesHaveDiverseRoots) {
  // The whole point: different trees root at different bridges (the
  // per-(bridge, tree) priority diversification).
  MultiRing m;
  std::set<std::uint64_t> roots;
  for (int t = 0; t < 4; ++t) {
    roots.insert(m.switchlets[0]->engine(t)->root_id().value());
  }
  EXPECT_GE(roots.size(), 2u);
}

TEST(MultiTreeSwitchlet, NoStormOnTheRing) {
  MultiRing m;
  m.ring.trace.clear();
  auto& probe = m.ring.topo.add_station_nic("probe", 0);
  probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                         ether::EtherType::kExperimental, {1}));
  m.ring.sched.run_for(netsim::seconds(1));
  EXPECT_LT(m.ring.trace.count_if([](const netsim::TraceEntry& e) {
              return e.decoded_ok && e.dst.is_broadcast();
            }),
            10u);
}

TEST(MultiTreeSwitchlet, EndToEndTrafficWorks) {
  MultiRing m;
  stack::HostConfig ha;
  ha.ip = stack::Ipv4Addr(10, 0, 0, 1);
  stack::HostStack host_a(m.ring.sched, m.ring.topo.add_station_nic("hostA", 0), ha);
  stack::HostConfig hb;
  hb.ip = stack::Ipv4Addr(10, 0, 0, 2);
  stack::HostStack host_b(m.ring.sched, m.ring.topo.add_station_nic("hostB", 1), hb);
  apps::PingApp ping(m.ring.sched, host_a, host_b.ip());
  ping.run(5, 64, netsim::milliseconds(100));
  m.ring.sched.run_for(netsim::seconds(3));
  EXPECT_EQ(ping.stats().received, 5);
}

TEST(MultiTreeSwitchlet, TrafficSpreadsAcrossTrees) {
  // Many hosts with distinct MACs: their frames hash onto different trees.
  MultiRing m;
  std::vector<std::unique_ptr<stack::HostStack>> hosts;
  for (int i = 0; i < 8; ++i) {
    stack::HostConfig hc;
    hc.ip = stack::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i + 1));
    hosts.push_back(std::make_unique<stack::HostStack>(
        m.ring.sched,
        m.ring.topo.add_station_nic("host" + std::to_string(i),
                                    static_cast<std::size_t>(i % 3)),
        hc));
  }
  // All-to-one pings from distinct sources.
  for (int i = 1; i < 8; ++i) {
    hosts[static_cast<std::size_t>(i)]->send_echo_request(hosts[0]->ip(), 1, 1, {});
  }
  m.ring.sched.run_for(netsim::seconds(3));
  const auto& per_tree = m.switchlets[0]->frames_per_tree();
  const int used = static_cast<int>(
      std::count_if(per_tree.begin(), per_tree.end(),
                    [](std::uint64_t c) { return c > 0; }));
  EXPECT_GE(used, 2) << "all traffic landed on one tree";
}

TEST(MultiTreeSwitchlet, StopRestoresPreviousSwitchFunction) {
  TwoLanFixture f;
  f.bridge->load_dumb();
  f.bridge->load_multitree();
  f.sched.run_for(netsim::seconds(35));
  ASSERT_EQ(f.ping_a_to_b(1), 1);
  ASSERT_TRUE(f.bridge->node().loader().stop("bridge.multitree"));
  // Dumb flooding restored.
  EXPECT_EQ(f.ping_a_to_b(1), 1);
  EXPECT_FALSE(f.bridge->node().funcs().has("bridge.multitree.trees"));
}

TEST(MultiTreeSwitchlet, TreeOfIsStableAndInRange) {
  auto plane = std::make_shared<ForwardingPlane>();
  MultiTreeConfig cfg;
  cfg.trees = 4;
  MultiTreeSwitchlet sw(plane, cfg);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto mac = ether::MacAddress::local(i, 0);
    const int t = sw.tree_of(mac);
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 4);
    EXPECT_EQ(t, sw.tree_of(mac));  // stable
  }
}

}  // namespace
}  // namespace ab::bridge
