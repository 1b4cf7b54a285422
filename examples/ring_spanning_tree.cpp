// Why the spanning-tree switchlet is mandatory: bridges in a ring.
// Without STP a single broadcast becomes a frame storm; with the third
// switchlet loaded the ring converges to a loop-free tree and traffic
// flows normally.
//
// The ring is declared, not hand-wired: TopologyBuilder plans the shape
// (try --nodes 32 for the macro-bench topology) and
// bridge::build_sharded_topology creates its segments and assembles the
// nodes, all in one region on one scheduler.
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "src/apps/ping.h"
#include "src/bridge/sharded_topology.h"
#include "src/netsim/trace.h"
#include "src/stack/host_stack.h"

using namespace ab;

namespace {

netsim::TopologySpec ring_spec(int nodes) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = nodes;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 3;
  if (argc > 1 && std::string_view(argv[1]) == "--nodes") {
    nodes = argc > 2 ? std::atoi(argv[2]) : 0;  // missing value -> usage
  }
  if (nodes < 2) {
    // Scenario 2 wires hosts onto two distinct LANs, so the ring needs at
    // least two (and "--nodes garbage" parses to 0).
    std::fprintf(stderr, "usage: %s [--nodes N]  (N >= 2)\n", argv[0]);
    return 1;
  }

  {
    std::printf("== scenario 1: %d-bridge ring WITHOUT spanning tree ==\n", nodes);
    bridge::TopologyBuildOptions opts;
    opts.stp = false;
    auto ring = bridge::build_sharded_topology(ring_spec(nodes), 1, {}, opts);
    netsim::Scheduler& sched = ring.regions.front()->net.scheduler();
    netsim::FrameTrace trace;
    for (auto* lan : ring.shape.lans) trace.watch(*lan);

    auto& probe = ring.add_station_nic("probe", 0);
    probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                           ether::EtherType::kExperimental, {1}));
    sched.run_for(netsim::milliseconds(50));
    std::printf("   one broadcast injected; %zu frames on the wire after 50 ms "
                "of simulated time -- a storm. \"a loop can cause unbounded\n"
                "   growth in the number of packets on the network leading to "
                "network collapse.\"\n\n",
                trace.size());
  }

  {
    std::printf("== scenario 2: %d-bridge ring WITH the spanning-tree switchlet ==\n",
                nodes);
    auto ring = bridge::build_sharded_topology(ring_spec(nodes), 1);
    netsim::Scheduler& sched = ring.regions.front()->net.scheduler();
    netsim::FrameTrace trace;
    for (auto* lan : ring.shape.lans) trace.watch(*lan);

    std::printf("   configuration phase (2 x forward delay = 30 s simulated)...\n");
    sched.run_for(netsim::seconds(45));

    int blocked = 0, forwarding = 0;
    std::size_t i = 0;
    for (auto* engine : bridge::stp_engines(ring.bridges)) {
      const auto snap = engine->snapshot();
      std::printf("   %s: root=%s%s", ring.shape.node_names[i++].c_str(),
                  snap.root.to_string().c_str(),
                  engine->is_root() ? " (this bridge)" : "");
      for (const auto& p : snap.ports) {
        std::printf("  port%u=%s", p.id,
                    std::string(bridge::to_string(p.role)).c_str());
        if (p.role == bridge::StpPortRole::kBlocked) ++blocked;
        if (p.state == bridge::StpPortState::kForwarding) ++forwarding;
      }
      std::printf("\n");
    }
    std::printf("   => %d blocked port(s), %d forwarding, converged=%s: the loop "
                "is cut.\n",
                blocked, forwarding, ring.stp_converged() ? "yes" : "no");

    // Now prove traffic still flows end to end.
    stack::HostConfig ha;
    ha.ip = stack::Ipv4Addr(10, 0, 0, 1);
    stack::HostStack host_a(sched, ring.add_station_nic("hostA", 0), ha);
    stack::HostConfig hb;
    hb.ip = stack::Ipv4Addr(10, 0, 0, 2);
    stack::HostStack host_b(sched, ring.add_station_nic("hostB", 1), hb);
    trace.clear();
    apps::PingApp ping(sched, host_a, host_b.ip());
    ping.run(3, 64, netsim::milliseconds(200));
    sched.run_for(netsim::seconds(2));
    std::printf("   ping across the ring: %d/%d replies, %zu frames total (no "
                "storm).\n",
                ping.stats().received, ping.stats().sent, trace.size());
  }
  return 0;
}
