// Shared topology fixtures for the bridge test suite, built on the
// parametric TopologyBuilder (netsim plans the shape, bridge::build_
// topology creates its segments and assembles the nodes). Switchlets are NOT preloaded: each test
// loads exactly the modules it exercises.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "src/bridge/topology.h"
#include "src/netsim/network.h"
#include "src/netsim/trace.h"
#include "src/stack/host_stack.h"

namespace ab::bridge::testing {

/// A plan of `nodes` bridges in `shape`, with no hosts.
inline netsim::TopologySpec bridges_only(netsim::TopologyShape shape, int nodes) {
  netsim::TopologySpec spec;
  spec.shape = shape;
  spec.nodes = nodes;
  return spec;
}

/// Bridges with no switchlet loaded.
inline TopologyBuildOptions no_switchlets() {
  TopologyBuildOptions opts;
  opts.dumb = opts.learning = opts.stp = false;
  return opts;
}

/// Two LANs joined by one bridge, with one host on each LAN:
///   hostA -- lan0 -- [bridge0] -- lan1 -- hostB
struct TwoLanFixture {
  netsim::Network net;
  /// The whole build result stays alive: its arena owns the bridge's port
  /// NICs, so plucking the BridgeNode out of a temporary would leave it
  /// wired to freed NICs.
  BridgedTopology topo;
  netsim::LanSegment* lan_a;
  netsim::LanSegment* lan_b;
  BridgeNode* bridge;
  std::unique_ptr<stack::HostStack> host_a;
  std::unique_ptr<stack::HostStack> host_b;
  netsim::FrameTrace trace;

  explicit TwoLanFixture(BridgeNodeConfig cfg = {})
      : topo(build_topology(net, bridges_only(netsim::TopologyShape::kLine, 1),
                            std::move(cfg), no_switchlets())) {
    lan_a = topo.shape.lans[0];
    lan_b = topo.shape.lans[1];
    trace.watch(*lan_a);
    trace.watch(*lan_b);
    bridge = topo.bridges[0].get();

    // Hosts are wired by hand: the tests rely on these exact IPs.
    stack::HostConfig ha;
    ha.ip = stack::Ipv4Addr(10, 0, 0, 1);
    host_a = std::make_unique<stack::HostStack>(net.scheduler(),
                                                net.add_nic("hostA", *lan_a), ha);
    stack::HostConfig hb;
    hb.ip = stack::Ipv4Addr(10, 0, 0, 2);
    host_b = std::make_unique<stack::HostStack>(net.scheduler(),
                                                net.add_nic("hostB", *lan_b), hb);
  }

  /// Ping A -> B and run for a bounded window (the spanning-tree hello
  /// timer reschedules forever, so an unbounded run() would never return);
  /// returns replies received by A.
  int ping_a_to_b(int count = 1) {
    int replies = 0;
    host_a->set_echo_handler([&](const stack::HostStack::EchoReply&) { ++replies; });
    for (int i = 0; i < count; ++i) {
      host_a->send_echo_request(host_b->ip(), 7, static_cast<std::uint16_t>(i), {});
    }
    net.scheduler().run_for(netsim::seconds(3));
    return replies;
  }
};

/// A ring of `n` bridges: lan[i] connects bridge[i] and bridge[(i+1)%n].
/// Loops forever without spanning tree; converges loop-free with it.
struct RingFixture {
  netsim::Network net;
  /// Owns the bridges AND the arena holding their port NICs (see
  /// TwoLanFixture); `bridges` below is just a raw view of it.
  BridgedTopology topo;
  std::vector<netsim::LanSegment*> lans;
  std::vector<BridgeNode*> bridges;
  netsim::FrameTrace trace;

  explicit RingFixture(int n = 3, BridgeNodeConfig cfg = {})
      : topo(build_topology(net, bridges_only(netsim::TopologyShape::kRing, n),
                            std::move(cfg), no_switchlets())) {
    lans = topo.shape.lans;
    for (auto* lan : lans) trace.watch(*lan);
    for (auto& b : topo.bridges) bridges.push_back(b.get());
  }

  /// Count of ports in each gate state across all bridges.
  int count_gates(PortGate gate) const { return bridge::count_gates(bridges, gate); }
};

}  // namespace ab::bridge::testing
