// Failure injection: the spanning tree and the loader's TFTP path must
// survive a lossy wire. BPDU loss is absorbed by the hello/max-age timer
// margins (10 consecutive hellos must vanish before stored info expires);
// TFTP rides its retransmission.
#include <gtest/gtest.h>

#include "src/apps/ping.h"
#include "src/bridge/sharded_topology.h"
#include "src/netsim/trace.h"

namespace ab {
namespace {

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, RingStaysLoopFreeAndConnectedUnderLoss) {
  const double loss = GetParam();
  // A lossy three-bridge ring, declared: every segment carries the same
  // loss rate with a distinct deterministic seed via lan_overrides.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 3;
  for (int i = 0; i < 3; ++i) {
    netsim::LanConfig cfg;
    cfg.loss = loss;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    spec.lan_overrides[i] = cfg;
  }
  auto ring = bridge::build_sharded_topology(spec, 1);
  netsim::Scheduler& sched = ring.regions.front()->net.scheduler();
  netsim::FrameTrace trace;
  for (auto* lan : ring.shape.lans) trace.watch(*lan);
  sched.run_for(netsim::seconds(60));

  // Still exactly one root, unanimously agreed, despite lost BPDUs.
  const std::vector<bridge::StpEngine*> engines = bridge::stp_engines(ring.bridges);
  int roots = 0;
  for (auto* e : engines) roots += e->is_root() ? 1 : 0;
  EXPECT_EQ(roots, 1);
  for (auto* e : engines) EXPECT_EQ(e->root_id(), engines[0]->root_id());
  EXPECT_TRUE(ring.stp_converged());

  // Loop-free: a burst of broadcasts stays bounded.
  trace.clear();
  auto& probe = ring.add_station_nic("probe", 0);
  for (int i = 0; i < 10; ++i) {
    probe.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), probe.mac(),
                                           ether::EtherType::kExperimental, {1}));
  }
  sched.run_for(netsim::seconds(2));
  EXPECT_LT(trace.count_if([](const netsim::TraceEntry& e) {
              return e.decoded_ok && e.dst.is_broadcast();
            }),
            100u);

  // Connected: ping succeeds across the ring (retrying through loss).
  stack::HostConfig ha;
  ha.ip = stack::Ipv4Addr(10, 0, 0, 1);
  stack::HostStack host_a(sched, ring.add_station_nic("hostA", 0), ha);
  stack::HostConfig hb;
  hb.ip = stack::Ipv4Addr(10, 0, 0, 2);
  stack::HostStack host_b(sched, ring.add_station_nic("hostB", 1), hb);
  apps::PingApp ping(sched, host_a, host_b.ip());
  ping.run(30, 64, netsim::milliseconds(200));
  sched.run_for(netsim::seconds(10));
  EXPECT_GT(ping.stats().received, 10);  // most pings survive 2x-5x loss rolls
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep, ::testing::Values(0.01, 0.05, 0.10));

}  // namespace
}  // namespace ab
