// bridge::build_sharded_topology: assembled parametric topologies (one
// region unless a test splits them) must carry real traffic -- STP
// converges on loopy shapes, hosts ping across the extended LAN, and shared
// segments with many bridges (star hubs, tree trunks) must not melt down
// (regression for the TCN amplification storm). Plus the region plan's
// contract: partition_regions on a bare plan, NIC identity at every region
// count, a 1-region cell's identity and run pinned to recorded values, and
// callers' station NICs. Plus planned hosts: each is built, with the
// identity an eager build gave it, when it first acts or is asked for, on
// the region that owns its LAN.
#include "src/bridge/topology.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/bridge/sharded_topology.h"
#include "src/netsim/parallel_runner.h"
#include "src/netsim/trace.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"

namespace ab::bridge {
namespace {

netsim::TopologySpec spec_of(netsim::TopologyShape shape, int nodes, int hosts = 0) {
  netsim::TopologySpec spec;
  spec.shape = shape;
  spec.nodes = nodes;
  spec.hosts_per_lan = hosts;
  return spec;
}

/// The one region's clock of a 1-region build.
netsim::Scheduler& clock_of(ShardedTopology& topo) {
  return topo.regions.front()->net.scheduler();
}

int ping_across(netsim::Scheduler& sched, stack::HostStack& src, stack::HostStack& dst) {
  int replies = 0;
  src.set_echo_handler([&](const stack::HostStack::EchoReply&) { ++replies; });
  src.send_echo_request(dst.ip(), 7, 1, {});
  sched.run_for(netsim::seconds(3));
  return replies;
}

TEST(BuildTopology, RingConvergesAndCarriesTraffic) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kRing, 4, 1), 1);
  netsim::Scheduler& sched = clock_of(topo);
  ASSERT_EQ(topo.bridges.size(), 4u);
  ASSERT_EQ(topo.host_count(), 4u);
  sched.run_for(netsim::seconds(45));
  EXPECT_TRUE(topo.stp_converged());
  // One loop, one cut.
  EXPECT_EQ(topo.count_gates(PortGate::kBlocked), 1);
  EXPECT_EQ(topo.count_gates(PortGate::kForwarding), 7);
  // Hosts on opposite sides reach each other.
  EXPECT_EQ(ping_across(sched, topo.host(0), topo.host(2)), 1);
  EXPECT_GT(topo.mac_entries(), 0u);
}

TEST(BuildTopology, HostAddressesAreUniqueAndOrdered) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kLine, 2, 2), 1);
  ASSERT_EQ(topo.host_count(), 6u);  // 3 segments x 2 hosts
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    for (std::size_t j = i + 1; j < topo.host_count(); ++j) {
      EXPECT_FALSE(topo.host(i).ip() == topo.host(j).ip());
    }
  }
}

TEST(BuildTopology, ThousandStationLansGetUniqueAddresses) {
  // The old 10.<lan>.<lan>.<host> scheme capped at 253 hosts per LAN; the
  // flat ordinal plan must hold thousand-station LANs without collisions.
  TopologyBuildOptions opts;
  opts.stp = false;  // no convergence needed; this is an addressing test
  auto topo =
      build_sharded_topology(spec_of(netsim::TopologyShape::kLine, 1, 600), 1, {}, opts);
  ASSERT_EQ(topo.host_count(), 2u * 600u);
  std::set<std::uint32_t> seen;
  for (std::size_t h = 0; h < topo.host_count(); ++h) {
    const stack::Ipv4Addr ip = topo.host(h).ip();
    EXPECT_TRUE(seen.insert(ip.value()).second) << ip.to_string() << " assigned twice";
    // Nothing may read as a network/broadcast address.
    EXPECT_NE(ip.value() & 0xFF, 0u) << ip.to_string();
    EXPECT_NE(ip.value() & 0xFF, 255u) << ip.to_string();
  }
}

TEST(BuildTopology, AddressPlanSlicesAreDisjoint) {
  std::set<std::uint32_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(topology_host_ip(i).value()).second);
  }
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(seen.insert(topology_loader_ip(i).value()).second);
    EXPECT_TRUE(seen.insert(topology_admin_ip(i).value()).second);
  }
  // The loader slice is one /16: ordinal 254*256 is the first that no
  // longer fits.
  EXPECT_THROW((void)topology_loader_ip(254u * 256u), std::invalid_argument);
}

TEST(BuildTopology, NetloaderOptionArmsEveryBridge) {
  TopologyBuildOptions opts;
  opts.netloader = true;
  auto topo =
      build_sharded_topology(spec_of(netsim::TopologyShape::kRing, 3, 1), 1, {}, opts);
  for (std::size_t b = 0; b < topo.bridges.size(); ++b) {
    ASSERT_TRUE(topo.bridges[b]->config().loader_ip.has_value());
    EXPECT_EQ(*topo.bridges[b]->config().loader_ip, topology_loader_ip(b));
    EXPECT_NE(topo.bridges[b]->node().loader().find("loader.net"), nullptr);
  }
}

TEST(BuildTopology, OptionsSelectModules) {
  TopologyBuildOptions opts;
  opts.stp = false;
  auto topo =
      build_sharded_topology(spec_of(netsim::TopologyShape::kLine, 1, 0), 1, {}, opts);
  EXPECT_NE(topo.bridges[0]->node().loader().find("bridge.dumb"), nullptr);
  EXPECT_NE(topo.bridges[0]->node().loader().find("bridge.learning"), nullptr);
  EXPECT_EQ(topo.bridges[0]->node().loader().find("stp.ieee"), nullptr);
  EXPECT_TRUE(stp_engines(topo.bridges).empty());
  EXPECT_FALSE(topo.stp_converged());
}

// Regression: a segment shared by many bridges (a star hub) used to melt
// down because every bridge on the segment re-propagated TCNs onto the
// same wire (exponential amplification). The hub must stay quiet: the
// whole convergence window plus traffic is a few thousand frames, not
// millions.
TEST(BuildTopology, StarHubDoesNotAmplifyTcns) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 8, 1), 1);
  netsim::Scheduler& sched = clock_of(topo);
  netsim::FrameTrace trace;
  trace.watch(*topo.shape.lans[0]);  // the hub
  sched.run_for(netsim::seconds(60));
  EXPECT_TRUE(topo.stp_converged());
  // Loop-free: nothing to block.
  EXPECT_EQ(topo.count_gates(PortGate::kBlocked), 0);
  // 60 s of hellos + the forwarding-transition TCN burst across 8 bridges:
  // linear traffic. The storm this guards against was ~10^6 frames.
  EXPECT_LT(trace.size(), 2000u);
  EXPECT_EQ(ping_across(sched, topo.host(0), topo.host(8)), 1);
}

TEST(BuildTopology, TreeTrunkSegmentsStayQuiet) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kTree, 7, 0);
  spec.tree_arity = 2;
  auto topo = build_sharded_topology(spec, 1);
  clock_of(topo).run_for(netsim::seconds(60));
  EXPECT_TRUE(topo.stp_converged());
  EXPECT_EQ(topo.count_gates(PortGate::kBlocked), 0);
  std::uint64_t frames = 0;
  for (auto* lan : topo.shape.lans) frames += lan->stats().frames_carried;
  EXPECT_LT(frames, 5000u);
}

TEST(BuildTopology, MeshConvergesWithManyLoopsCut) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kMesh, 4, 0), 1);
  clock_of(topo).run_for(netsim::seconds(60));
  EXPECT_TRUE(topo.stp_converged());
  // 6 p2p segments, 12 bridge ports, spanning tree keeps 4 nodes on 3
  // active links: every redundant pair is cut somewhere.
  EXPECT_GT(topo.count_gates(PortGate::kBlocked), 0);
}

TEST(BuildTopology, RandomKRegularConvergesAndCarriesTraffic) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kRandomKRegular, 8, 1);
  spec.degree = 3;
  spec.seed = 42;
  auto topo = build_sharded_topology(spec, 1);
  netsim::Scheduler& sched = clock_of(topo);
  ASSERT_EQ(topo.bridges.size(), 8u);
  ASSERT_EQ(topo.shape.lans.size(), 12u);  // 8*3/2 point-to-point segments
  sched.run_for(netsim::seconds(60));
  EXPECT_TRUE(topo.stp_converged());
  // 12 edges over 8 nodes: 5 redundant links, each cut at one end.
  EXPECT_EQ(topo.count_gates(PortGate::kBlocked), 5);
  EXPECT_EQ(ping_across(sched, topo.host(0), topo.host(topo.host_count() - 1)), 1);
}

TEST(BuildTopology, ScaleFreeConvergesAndCarriesTraffic) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kScaleFree, 12, 1);
  spec.attach = 2;
  spec.seed = 3;
  auto topo = build_sharded_topology(spec, 1);
  netsim::Scheduler& sched = clock_of(topo);
  ASSERT_EQ(topo.bridges.size(), 12u);
  // Seed clique C(3,2)=3 edges + 9 newcomers x 2.
  ASSERT_EQ(topo.shape.lans.size(), 21u);
  sched.run_for(netsim::seconds(60));
  EXPECT_TRUE(topo.stp_converged());
  EXPECT_EQ(ping_across(sched, topo.host(0), topo.host(topo.host_count() - 1)), 1);
}

// Regression for the TCA satellite: a lossy segment between a notifying
// bridge and the root used to swallow TCNs silently (they were sent once,
// unacknowledged). With topology-change acknowledgment the notifier
// retransmits every hello time until the designated bridge acks, so the
// root reliably learns of the change even at 60% loss.
TEST(BuildTopology, TopologyChangeSurvivesLossySegment) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kLine, 3, 0);
  netsim::LanConfig lossy;
  lossy.loss = 0.6;
  lossy.seed = 99;
  spec.lan_overrides[1] = lossy;  // between bridge0 and bridge1
  auto topo = build_sharded_topology(spec, 1);
  clock_of(topo).run_for(netsim::seconds(60));
  ASSERT_TRUE(topo.stp_converged());

  // bridge0 (lowest MAC) is root on a line. The far bridge's ports going
  // Forwarding at t=30 raised topology events that had to cross the lossy
  // segment as TCNs; with 60% loss the first copy usually dies, so only
  // retransmission gets them through.
  const std::vector<StpEngine*> engines = stp_engines(topo.bridges);
  ASSERT_EQ(engines.size(), 3u);
  StpEngine* root = nullptr;
  std::uint64_t retransmits = 0;
  std::uint64_t tcas_received = 0;
  for (StpEngine* e : engines) {
    if (e->is_root()) root = e;
    retransmits += e->stats().tcn_retransmits;
    tcas_received += e->stats().tcas_received;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_GT(root->stats().tcns_received, 0u);  // the change reached the root
  EXPECT_GT(retransmits, 0u);                  // ...because someone kept trying
  EXPECT_GT(tcas_received, 0u);                // ...until the ack landed
}

// ---------------------------------------------------------------------------
// partition_regions reads the index plan alone: no Network, no segment.

TEST(PartitionRegions, RingSplitsIntoContiguousBlocksCutAtTheSeams) {
  // Ring of 6: node i bridges lan i and lan (i+1)%6. Two regions take
  // nodes 0-2 and 3-5, so lan 3 (nodes 2, 3) and lan 0 (nodes 5, 0) are
  // cut, each owned by the region of its lowest-numbered node.
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kRing, 6);
  spec.lan_overrides[3].propagation = netsim::microseconds(2);
  // Faster still, but internal: an uncut LAN does not bound the window.
  spec.lan_overrides[1].propagation = netsim::microseconds(1);
  const RegionPlan plan = partition_regions(netsim::TopologyBuilder::build(spec), 2);

  EXPECT_EQ(plan.regions, 2);
  EXPECT_EQ(plan.node_region, (std::vector<int>{0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(plan.cut_lans, 2);
  for (std::size_t l = 0; l < 6; ++l) EXPECT_EQ(plan.cut(l), l == 0 || l == 3) << l;
  EXPECT_EQ(plan.lan_regions[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.lan_regions[3], (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.lan_regions[4], (std::vector<int>{1}));
  EXPECT_EQ(plan.lan_owner, (std::vector<int>{0, 0, 0, 0, 1, 1}));
  // The smaller of the two cut LANs' propagation: lan 3's 2 us, not lan
  // 0's default 5 us or uncut lan 1's 1 us.
  EXPECT_EQ(plan.lookahead, netsim::microseconds(2));
}

TEST(PartitionRegions, ZeroPropagationIsRejectedOnlyOnACutLan) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kRing, 6);
  spec.lan_overrides[3].propagation = netsim::Duration::zero();
  const netsim::Topology shape = netsim::TopologyBuilder::build(spec);
  EXPECT_THROW((void)partition_regions(shape, 2), std::invalid_argument);
  // At one region nothing is cut, so nothing needs lookahead.
  RegionPlan whole;
  EXPECT_NO_THROW(whole = partition_regions(shape, 1));
  EXPECT_EQ(whole.cut_lans, 0);
  EXPECT_EQ(whole.lookahead, netsim::Duration::zero());
}

// The sharded build's addresses are a function of the plan, not of the
// partition: a cell's NIC names, MACs and host IPs at 2 and 4 regions are
// those of its 1-region build (itself pinned to recorded values by
// ShardedBuild.OneRegionStarCellKeepsItsRecordedIdentityAndRun).
TEST(ShardedBuild, KRegularNicIdentityDoesNotDependOnRegionCount) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kRandomKRegular, 8, 2);
  spec.degree = 4;
  spec.seed = 7;
  struct Identity {
    std::vector<std::pair<std::string, ether::MacAddress>> nics;  ///< ports, hosts
    std::vector<stack::Ipv4Addr> ips;
    std::uint32_t next_mac_id = 0;
  };
  const auto identity = [&spec](int regions) {
    ShardedTopology topo = build_sharded_topology(spec, regions);
    EXPECT_EQ(topo.regions.size(), static_cast<std::size_t>(regions));
    Identity id;
    for (BridgeNode* b : topo.bridges) {
      for (const ForwardingPlane::Port& p : b->plane().bridge_ports()) {
        id.nics.emplace_back(p.out->nic().name(), p.out->nic().mac());
      }
    }
    for (std::size_t h = 0; h < topo.host_count(); ++h) {
      stack::HostStack& host = topo.host(h);
      id.nics.emplace_back(host.nic().name(), host.nic().mac());
      id.ips.push_back(host.ip());
    }
    id.next_mac_id = topo.next_mac_id;
    return id;
  };

  const Identity one = identity(1);
  ASSERT_EQ(one.nics.size(), 8u * 4u + 16u * 2u);  // 32 ports, 16 lans x 2 hosts
  EXPECT_EQ(one.next_mac_id, 1u + 64u);
  std::set<ether::MacAddress> macs;
  for (const auto& nic : one.nics) macs.insert(nic.second);
  EXPECT_EQ(macs.size(), one.nics.size());
  for (const int regions : {2, 4}) {
    const Identity split = identity(regions);
    EXPECT_EQ(split.nics, one.nics) << regions << " regions";
    EXPECT_EQ(split.ips, one.ips) << regions << " regions";
    EXPECT_EQ(split.next_mac_id, one.next_mac_id) << regions << " regions";
  }
}

// A small tie-free cell at one region, pinned to values recorded when a
// second, single-Network builder still existed and matched this build NIC
// by NIC and event by event: every LAN's NICs in attach order, with their
// names and MAC ids, and every host's address; then, after convergence and
// one ping from every host to its successor, the scheduler's counts, each
// LAN's stats and every port's gate.
TEST(ShardedBuild, OneRegionStarCellKeepsItsRecordedIdentityAndRun) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 3, 2), 1);
  netsim::Scheduler& sched = clock_of(topo);

  // Build every host first, so the attach lists hold stations, not just
  // bridge ports.
  ASSERT_EQ(topo.host_count(), 8u);
  for (std::size_t h = 0; h < topo.host_count(); ++h) {
    const auto last = static_cast<std::uint8_t>(h + 1);
    EXPECT_EQ(topo.host(h).ip(), stack::Ipv4Addr(10, 0, 0, last)) << "host " << h;
  }
  using Nics = std::vector<std::pair<std::string, std::uint32_t>>;  ///< name, MAC id
  const std::vector<Nics> attached = {
      {{"bridge0.eth1", 2}, {"bridge1.eth1", 4}, {"bridge2.eth1", 6}, {"host0_0", 7},
       {"host0_1", 8}},
      {{"bridge0.eth0", 1}, {"host1_0", 9}, {"host1_1", 10}},
      {{"bridge1.eth0", 3}, {"host2_0", 11}, {"host2_1", 12}},
      {{"bridge2.eth0", 5}, {"host3_0", 13}, {"host3_1", 14}},
  };
  ASSERT_EQ(topo.lan_count(), attached.size());
  for (std::size_t l = 0; l < attached.size(); ++l) {
    const std::vector<netsim::Nic*>& got = topo.shape.lans[l]->attached();
    ASSERT_EQ(got.size(), attached[l].size()) << "lan " << l;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NE(got[i], nullptr) << "lan " << l << " nic " << i;
      EXPECT_EQ(got[i]->name(), attached[l][i].first) << "lan " << l << " nic " << i;
      EXPECT_EQ(got[i]->mac(), netsim::mac_of_id(attached[l][i].second))
          << "lan " << l << " nic " << i;
    }
  }

  // The sweep's default drive: 45 s of convergence, then one ping from
  // every host to its successor and 5 s of traffic.
  sched.run_for(netsim::seconds(45));
  const std::size_t hosts = topo.host_count();
  std::vector<int> answered(hosts, 0);
  for (std::size_t i = 0; i < hosts; ++i) {
    int* slot = &answered[i];
    topo.host(i).set_echo_handler(
        [slot](const stack::HostStack::EchoReply&) { ++*slot; });
    topo.host(i).send_echo_request(topo.host((i + 1) % hosts).ip(), 7,
                                   static_cast<std::uint16_t>(i), {});
  }
  sched.run_for(netsim::seconds(5));
  EXPECT_EQ(answered, std::vector<int>(hosts, 1));

  EXPECT_EQ(sched.executed(), 579u);
  EXPECT_EQ(sched.inserts(), 418u);
  EXPECT_EQ(sched.scheduled(), 627u);
  // frames carried, bytes carried, frames lost, receivers visited and
  // skipped, per LAN.
  using Stats = std::array<std::uint64_t, 5>;
  const std::vector<Stats> stats = {{60, 3840, 0, 136, 104},
                                    {42, 2688, 0, 16, 68},
                                    {49, 3136, 0, 16, 82},
                                    {49, 3136, 0, 16, 82}};
  for (std::size_t l = 0; l < stats.size(); ++l) {
    const netsim::LanStats got = topo.lan_stats(l);
    EXPECT_EQ((Stats{got.frames_carried, got.bytes_carried, got.frames_lost,
                     got.receivers_visited, got.receivers_skipped}),
              stats[l])
        << "lan " << l;
  }
  // A star has no loop: every port of every bridge forwards.
  ASSERT_EQ(topo.bridges.size(), 3u);
  for (std::size_t n = 0; n < topo.bridges.size(); ++n) {
    const auto& ports = topo.bridges[n]->plane().bridge_ports();
    ASSERT_EQ(ports.size(), 2u) << "bridge " << n;
    for (std::size_t p = 0; p < ports.size(); ++p) {
      EXPECT_EQ(ports[p].gate, PortGate::kForwarding) << "bridge " << n << " port " << p;
    }
  }
}

// A caller's NIC continues the cell's MAC counter past every planned host
// and sits on its LAN's owning replica, at any region count. At two
// regions the hub LAN 0 is cut, and leaf LAN 3 (bridge 2's) is owned by
// region 1.
TEST(ShardedBuild, StationNicContinuesTheCounterOnTheOwningReplica) {
  constexpr std::uint32_t kPorts = 3 * 2;  // hub lan 0 has 3, each leaf 1
  for (const int regions : {1, 2}) {
    auto topo =
        build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 3, 4), regions);
    ASSERT_EQ(topo.regions.size(), static_cast<std::size_t>(regions));
    std::uint32_t id = kPorts + 16 + 1;
    for (const std::size_t l : {std::size_t{0}, std::size_t{3}}) {
      netsim::Nic& nic = topo.add_station_nic("late" + std::to_string(l), l);
      EXPECT_EQ(nic.mac(), netsim::mac_of_id(id++)) << regions << " regions, lan " << l;
      netsim::LanSegment* owner = topo.owner_region(l).replicas[l];
      EXPECT_EQ(nic.segment(), owner) << regions << " regions, lan " << l;
      EXPECT_EQ(topo.shape.lans[l], owner) << regions << " regions, lan " << l;
      EXPECT_EQ(owner->attached().back(), &nic) << regions << " regions, lan " << l;
    }
    EXPECT_EQ(&topo.owner_region(3), topo.regions.back().get()) << regions << " regions";
    EXPECT_EQ(topo.next_mac_id, id);
  }
}

// A LAN index past the last one throws, as host(i) does past the last
// host, instead of reading past the plan; a refused station NIC draws no
// MAC.
TEST(ShardedBuild, PerLanCallsRejectALanPastTheLast) {
  for (const int regions : {1, 2}) {
    auto topo =
        build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 3, 4), regions);
    const std::uint32_t next = topo.next_mac_id;
    for (const std::size_t l : {topo.lan_count(), topo.lan_count() + 1000}) {
      EXPECT_THROW((void)topo.owner_region(l), std::out_of_range) << regions;
      EXPECT_THROW((void)topo.lan_stats(l), std::out_of_range) << regions;
      EXPECT_THROW((void)topo.lan_attached(l), std::out_of_range) << regions;
      EXPECT_THROW((void)topo.add_station_nic("past", l), std::out_of_range) << regions;
    }
    EXPECT_EQ(topo.next_mac_id, next) << regions << " regions";
    EXPECT_NO_THROW((void)topo.lan_stats(topo.lan_count() - 1)) << regions << " regions";
  }
}

// The identity a host is built with is the one the eager build gave it:
// bridge ports draw MAC ids first, then hosts in ordinal order; the name
// spells the plan's attachment; the address is the ordinal's; and the NIC
// sits at the attach position after its LAN's bridge ports.
TEST(PlannedHosts, HostIsIdempotentAndKeepsTheEagerIdentity) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 3, 4), 1);
  constexpr std::uint32_t kPorts = 3 * 2;  // hub lan 0 has 3, each leaf 1
  ASSERT_EQ(topo.host_count(), 16u);
  EXPECT_EQ(topo.hosts_built(), 0u);
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    stack::HostStack& host = topo.host(i);
    EXPECT_EQ(&topo.host(i), &host);
    EXPECT_EQ(topo.hosts_built(), i + 1);
    const netsim::Topology::HostAttach at = topo.shape.host(i);
    EXPECT_EQ(host.nic().name(),
              "host" + std::to_string(at.lan) + "_" + std::to_string(at.index));
    EXPECT_EQ(host.nic().mac(),
              netsim::mac_of_id(kPorts + 1 + static_cast<std::uint32_t>(i)));
    EXPECT_EQ(host.ip(), topology_host_ip(i));
    const std::size_t ports_here = at.lan == 0 ? 3 : 1;
    netsim::LanSegment& lan = *topo.shape.lans[static_cast<std::size_t>(at.lan)];
    EXPECT_EQ(host.nic().segment(), &lan);
    EXPECT_EQ(lan.attached()[ports_here + static_cast<std::size_t>(at.index)],
              &host.nic());
  }
  // A caller's NIC continues the counter past every planned host.
  EXPECT_EQ(topo.add_station_nic("late", 0).mac(), netsim::mac_of_id(kPorts + 17));
}

TEST(PlannedHosts, LanAttachedCountsPlannedHostsAtEveryRegionCount) {
  const netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kStar, 3, 4);
  for (const int regions : {1, 2, 3}) {
    ShardedTopology topo = build_sharded_topology(spec, regions);
    EXPECT_EQ(topo.lan_attached(0), 3u + 4u) << regions << " regions";  // the hub
    for (std::size_t l = 1; l < topo.lan_count(); ++l) {
      EXPECT_EQ(topo.lan_attached(l), 1u + 4u) << regions << " regions, lan " << l;
    }
    EXPECT_EQ(topo.hosts_built(), 0u);
    EXPECT_EQ(topo.next_mac_id, 1u + 6u + 16u);
    // Building a host moves it from planned to built; the count holds.
    (void)topo.host(5);
    EXPECT_EQ(topo.lan_attached(1), 1u + 4u);
    EXPECT_EQ(topo.hosts_built(), 1u);
  }
}

// Frames build hosts on the region that owns their LAN, on that region's
// worker: each built host runs on its owner's clock, sits on its owner's
// replica and lives in its owner's arena. The pings cross the cut hub LAN,
// so each target's who-has reaches its region through a mailbox while the
// other region's worker builds its own targets.
TEST(PlannedHosts, MultiRegionCellBuildsEachHostOnItsOwningRegion) {
  netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kStar, 4, 3);
  TopologyBuildOptions opts;
  opts.stp = false;  // a star has no loop; forward from the start
  ShardedTopology topo = build_sharded_topology(spec, 2, {}, opts);
  ASSERT_EQ(topo.regions.size(), 2u);
  const std::size_t lans = topo.lan_count();

  // Talker = host 0 of each LAN, target = host 1 of the next LAN.
  std::vector<int> answered(lans, 0);
  std::vector<std::size_t> targets;
  for (std::size_t l = 0; l < lans; ++l) {
    const std::size_t talker = 3 * l;
    const std::size_t target = 3 * ((l + 1) % lans) + 1;
    targets.push_back(target);
    stack::HostStack& src = topo.host(talker);
    int* slot = &answered[l];
    src.set_echo_handler([slot](const stack::HostStack::EchoReply&) { ++*slot; });
    src.send_echo_request(topology_host_ip(target), 7, 1, {});
  }
  ASSERT_EQ(topo.hosts_built(), lans);
  std::vector<std::size_t> objects_before;
  for (const auto& region : topo.regions) {
    objects_before.push_back(region->arena.stats().objects);
  }

  netsim::ParallelRunner::Options ropts;
  ropts.threads = 2;
  ropts.lookahead = topo.plan.lookahead;
  netsim::ParallelRunner runner(topo.shard_handles(), ropts);
  runner.run_for(netsim::seconds(2));

  EXPECT_EQ(answered, std::vector<int>(lans, 1));
  EXPECT_EQ(topo.hosts_built(), 2 * lans);  // the targets, and nobody else
  std::vector<std::size_t> built_on(topo.regions.size(), 0);
  for (const std::size_t target : targets) {
    const auto l = static_cast<std::size_t>(topo.shape.host(target).lan);
    ShardedTopology::Region& owner = topo.owner_region(l);
    stack::HostStack& host = topo.host(target);
    EXPECT_EQ(&host.scheduler(), &owner.net.scheduler()) << "host " << target;
    EXPECT_EQ(host.nic().segment(), owner.replicas[l]) << "host " << target;
    built_on[static_cast<std::size_t>(topo.plan.lan_owner[l])] += 1;
  }
  EXPECT_EQ(topo.hosts_built(), 2 * lans);
  for (std::size_t r = 0; r < topo.regions.size(); ++r) {
    // A NIC and a HostStack per host the region built.
    EXPECT_EQ(topo.regions[r]->arena.stats().objects - objects_before[r], 2 * built_on[r])
        << "region " << r;
    EXPECT_GT(built_on[r], 0u) << "region " << r;
  }
}


TEST(PlannedHosts, HostPastTheLastOrdinalThrowsOutOfRange) {
  auto topo = build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 3, 4), 1);
  EXPECT_THROW((void)topo.host(topo.host_count()), std::out_of_range);
  ShardedTopology sharded = build_sharded_topology(spec_of(netsim::TopologyShape::kRing, 4, 2), 2);
  EXPECT_THROW((void)sharded.host(sharded.host_count()), std::out_of_range);
  EXPECT_THROW((void)sharded.host(sharded.host_count() + 1000), std::out_of_range);
  EXPECT_EQ(topo.hosts_built(), 0u);
  EXPECT_EQ(sharded.hosts_built(), 0u);
}

// Hosts asked for in scrambled order split their LAN's block around
// themselves; each still lands in its planned slot (the LAN's bridge
// ports, then its hosts by index) with its planned MAC and address.
TEST(HostBlocks, HostsAskedOutOfOrderSitInTheirPlannedSlots) {
  const netsim::TopologySpec spec = spec_of(netsim::TopologyShape::kStar, 4, 5);
  for (const int regions : {1, 2}) {
    ShardedTopology topo = build_sharded_topology(spec, regions);
    const std::size_t n = topo.host_count();
    ASSERT_EQ(n, 25u);
    const std::uint32_t first_id = topo.next_mac_id - static_cast<std::uint32_t>(n);
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = (step * 7 + 3) % n;  // 7 is coprime to 25
      stack::HostStack& host = topo.host(i);
      const netsim::Topology::HostAttach at = topo.shape.host(i);
      const auto l = static_cast<std::size_t>(at.lan);
      const netsim::LanSegment& replica = *topo.owner_region(l).replicas[l];
      const std::size_t ports = replica.attached().size() - 5;
      EXPECT_EQ(replica.attached()[ports + static_cast<std::size_t>(at.index)], &host.nic())
          << regions << " regions, host " << i;
      EXPECT_EQ(host.nic().mac(), netsim::mac_of_id(first_id + static_cast<std::uint32_t>(i)));
      EXPECT_EQ(host.ip(), topology_host_ip(i));
      EXPECT_EQ(topo.hosts_built(), step + 1);
    }
    for (std::size_t l = 0; l < topo.lan_count(); ++l) {
      EXPECT_EQ(topo.owner_region(l).replicas[l]->planned_count(), 0u);
    }
  }
}

/// A star cell at `regions` regions after one IPv4 frame to the broadcast
/// MAC, sent by a probe on lan 1: every LAN's replica takes the full walk,
/// so each region's worker builds every host its LANs plan.
struct FullWalk {
  std::vector<std::uint64_t> frames_carried;  ///< per LAN
  std::vector<std::uint64_t> host_rx;         ///< per host ordinal
};

FullWalk full_walk(int regions) {
  TopologyBuildOptions opts;
  opts.stp = false;  // a star has no loop; forward from the start
  ShardedTopology topo =
      build_sharded_topology(spec_of(netsim::TopologyShape::kStar, 4, 3), regions, {}, opts);
  netsim::Nic& probe = topo.add_station_nic("probe", 1);
  stack::IcmpEcho echo;
  echo.type = stack::IcmpType::kEchoRequest;
  stack::Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(stack::IpProto::kIcmp);
  h.src = topology_admin_ip(0);
  h.dst = topology_admin_ip(1);  // nobody's: every station parses it, none answers
  util::ByteBuffer packet = echo.encode();
  h.write_in_place(packet);
  EXPECT_TRUE(probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                                      probe.mac(), ether::EtherType::kIpv4,
                                                      std::move(packet))));
  netsim::ParallelRunner::Options ropts;
  ropts.threads = regions;
  ropts.lookahead = topo.plan.lookahead;
  netsim::ParallelRunner runner(topo.shard_handles(), ropts);
  runner.run_for(netsim::milliseconds(100));

  FullWalk walk;
  EXPECT_EQ(topo.hosts_built(), topo.host_count()) << regions << " regions";
  for (std::size_t l = 0; l < topo.lan_count(); ++l) {
    walk.frames_carried.push_back(topo.lan_stats(l).frames_carried);
  }
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    stack::HostStack& host = topo.host(i);
    const auto l = static_cast<std::size_t>(topo.shape.host(i).lan);
    ShardedTopology::Region& owner = topo.owner_region(l);
    EXPECT_EQ(&host.scheduler(), &owner.net.scheduler()) << "host " << i;
    EXPECT_EQ(host.nic().segment(), owner.replicas[l]) << "host " << i;
    walk.host_rx.push_back(host.nic().stats().rx_frames);
  }
  return walk;
}

TEST(HostBlocks, MultiRegionFullWalkBuildsEveryHostOnItsOwningRegion) {
  const FullWalk one = full_walk(1);
  EXPECT_EQ(one.host_rx, std::vector<std::uint64_t>(15, 1));
  const FullWalk two = full_walk(2);
  EXPECT_EQ(two.frames_carried, one.frames_carried);
  EXPECT_EQ(two.host_rx, one.host_rx);
}

}  // namespace
}  // namespace ab::bridge
