// Ablation: why the spanning-tree switchlet (paper switchlet #3) is
// mandatory on looped topologies. One broadcast frame is injected into a
// three-bridge ring; we count frames on the wire over the following
// simulated second, with and without STP.
#include <cstdio>

#include "src/bridge/sharded_topology.h"
#include "src/netsim/trace.h"

using namespace ab;

namespace {

std::size_t storm_frames(bool with_stp) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 3;
  bridge::TopologyBuildOptions opts;
  opts.stp = with_stp;
  auto ring = bridge::build_sharded_topology(spec, 1, {}, opts);
  netsim::Scheduler& sched = ring.regions.front()->net.scheduler();
  netsim::FrameTrace trace;
  for (auto* lan : ring.shape.lans) trace.watch(*lan);
  if (with_stp) sched.run_for(netsim::seconds(45));  // converge

  trace.clear();
  auto& probe = ring.add_station_nic("probe", 0);
  probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                         ether::EtherType::kExperimental, {1}));
  sched.run_for(netsim::seconds(1));
  return trace.size();
}

}  // namespace

int main() {
  std::printf("ablation: one broadcast injected into a 3-bridge ring, frames on "
              "the wire within 1 s\n");
  const std::size_t with = storm_frames(true);
  std::printf("%-34s %10zu frames (spanning tree prunes the loop)\n",
              "with the spanning-tree switchlet", with);
  const std::size_t without = storm_frames(false);
  std::printf("%-34s %10zu frames (unbounded growth: \"network collapse\")\n",
              "without it", without);
  std::printf("\nthe paper: \"since a bridge that receives one packet may generate "
              "several packets,\na loop can cause unbounded growth in the number of "
              "packets on the network.\"\n");
  return 0;
}
