// The measurement apps: repeater forwarding, ping RTT accounting, ttcp
// throughput accounting -- the instruments the benches rely on.
#include <gtest/gtest.h>

#include "src/apps/ping.h"
#include "src/apps/repeater.h"
#include "src/apps/ttcp.h"
#include "tests/bridge/bridge_test_util.h"

namespace ab::apps {
namespace {

struct RepeaterFixture {
  netsim::Network net;
  netsim::LanSegment* lan1;
  netsim::LanSegment* lan2;
  std::unique_ptr<BufferedRepeater> repeater;
  std::unique_ptr<stack::HostStack> host_a;
  std::unique_ptr<stack::HostStack> host_b;

  explicit RepeaterFixture(netsim::CostModel cost = netsim::CostModel::ideal()) {
    lan1 = &net.add_segment("lan1");
    lan2 = &net.add_segment("lan2");
    auto& r1 = net.add_nic("rep0", *lan1);
    auto& r2 = net.add_nic("rep1", *lan2);
    repeater = std::make_unique<BufferedRepeater>(net.scheduler(), r1, r2, cost);
    stack::HostConfig ha;
    ha.ip = stack::Ipv4Addr(10, 0, 0, 1);
    host_a = std::make_unique<stack::HostStack>(net.scheduler(),
                                                net.add_nic("hostA", *lan1), ha);
    stack::HostConfig hb;
    hb.ip = stack::Ipv4Addr(10, 0, 0, 2);
    host_b = std::make_unique<stack::HostStack>(net.scheduler(),
                                                net.add_nic("hostB", *lan2), hb);
  }
};

TEST(BufferedRepeater, ForwardsBothDirections) {
  RepeaterFixture f;
  PingApp ping(f.net.scheduler(), *f.host_a, f.host_b->ip());
  ping.send_one(64);
  f.net.scheduler().run();
  EXPECT_EQ(ping.stats().received, 1);
  EXPECT_GT(f.repeater->forwarded(), 0u);
}

TEST(BufferedRepeater, CostModelAddsLatency) {
  RepeaterFixture ideal;
  RepeaterFixture costly(netsim::CostModel::c_repeater());
  PingApp ping_ideal(ideal.net.scheduler(), *ideal.host_a, ideal.host_b->ip());
  PingApp ping_costly(costly.net.scheduler(), *costly.host_a, costly.host_b->ip());
  ping_ideal.send_one(100);
  ping_costly.send_one(100);
  ideal.net.scheduler().run();
  costly.net.scheduler().run();
  ASSERT_EQ(ping_ideal.stats().received, 1);
  ASSERT_EQ(ping_costly.stats().received, 1);
  EXPECT_GT(ping_costly.stats().avg(), ping_ideal.stats().avg());
}

TEST(PingApp, TracksRttStatistics) {
  RepeaterFixture f;
  PingApp ping(f.net.scheduler(), *f.host_a, f.host_b->ip());
  ping.run(5, 64, netsim::milliseconds(100));
  f.net.scheduler().run();
  EXPECT_EQ(ping.stats().sent, 5);
  EXPECT_EQ(ping.stats().received, 5);
  EXPECT_GT(ping.stats().avg(), netsim::Duration::zero());
  EXPECT_LE(ping.stats().min, ping.stats().avg());
  EXPECT_LE(ping.stats().avg(), ping.stats().max);
  EXPECT_EQ(ping.stats().loss_fraction(), 0.0);
  ASSERT_TRUE(ping.first_reply_at().has_value());
}

TEST(PingApp, CountsLossWhenTargetAbsent) {
  RepeaterFixture f;
  PingApp ping(f.net.scheduler(), *f.host_a, stack::Ipv4Addr(10, 0, 0, 99));
  ping.run(3, 64, netsim::milliseconds(10));
  f.net.scheduler().run();
  EXPECT_EQ(ping.stats().sent, 3);
  EXPECT_EQ(ping.stats().received, 0);
  EXPECT_EQ(ping.stats().loss_fraction(), 1.0);
}

TEST(Ttcp, MovesAllBytesAndMeasures) {
  RepeaterFixture f;
  TtcpSink sink(f.net.scheduler(), *f.host_b, 5001);
  TtcpConfig cfg;
  cfg.destination = f.host_b->ip();
  cfg.write_size = 1024;
  cfg.total_bytes = 64 * 1024;
  // Prime ARP so the blast does not race resolution.
  PingApp ping(f.net.scheduler(), *f.host_a, f.host_b->ip());
  ping.send_one(32);
  f.net.scheduler().run();

  TtcpSender sender(*f.host_a, cfg);
  sender.start();
  f.net.scheduler().run();
  EXPECT_EQ(sender.writes_issued(), 64u);
  EXPECT_EQ(sink.bytes_received(), cfg.total_bytes);
  EXPECT_EQ(sink.datagrams_received(), 64u);
  EXPECT_GT(sink.throughput_mbps(), 0.0);
  EXPECT_GT(sink.datagrams_per_second(), 0.0);
}

TEST(Ttcp, LargeWritesFragmentAndStillArrive) {
  RepeaterFixture f;
  f.host_a->nic().set_tx_queue_limit(100000);
  TtcpSink sink(f.net.scheduler(), *f.host_b, 5001);
  TtcpConfig cfg;
  cfg.destination = f.host_b->ip();
  cfg.write_size = 8192;  // the paper's write size
  cfg.total_bytes = 256 * 1024;
  PingApp ping(f.net.scheduler(), *f.host_a, f.host_b->ip());
  ping.send_one(32);
  f.net.scheduler().run();

  TtcpSender sender(*f.host_a, cfg);
  sender.start();
  f.net.scheduler().run();
  EXPECT_EQ(sink.bytes_received(), cfg.total_bytes);
  EXPECT_GT(f.host_a->stats().fragments_sent, sender.writes_issued());
}

TEST(Ttcp, ThroughTheActiveBridgeIsSlowerThanRepeater) {
  // The core Figure 10 relationship, as a correctness property: bridge
  // throughput < repeater throughput for the same workload.
  auto run_one = [](bool use_bridge) {
    bridge::testing::TwoLanFixture f(
        use_bridge
            ? [] {
                bridge::BridgeNodeConfig c;
                c.cost = netsim::CostModel::caml_bridge();
                return c;
              }()
            : bridge::BridgeNodeConfig{});
    if (use_bridge) {
      f.bridge->load_dumb();
      f.bridge->load_learning();
    }
    std::unique_ptr<BufferedRepeater> repeater;
    if (!use_bridge) {
      auto& r1 = f.topo.add_station_nic("rep0", 0);
      auto& r2 = f.topo.add_station_nic("rep1", 1);
      repeater = std::make_unique<BufferedRepeater>(f.sched, r1, r2);
    }
    f.host_a->nic().set_tx_queue_limit(100000);
    TtcpSink sink(f.sched, *f.host_b, 5001);
    PingApp prime(f.sched, *f.host_a, f.host_b->ip());
    prime.send_one(32);
    f.sched.run_for(netsim::seconds(2));
    TtcpConfig cfg;
    cfg.destination = f.host_b->ip();
    cfg.write_size = 1024;
    cfg.total_bytes = 128 * 1024;
    TtcpSender sender(*f.host_a, cfg);
    sender.start();
    f.sched.run_for(netsim::seconds(30));
    return sink.throughput_mbps();
  };
  const double repeater_mbps = run_one(false);
  const double bridge_mbps = run_one(true);
  ASSERT_GT(repeater_mbps, 0.0);
  ASSERT_GT(bridge_mbps, 0.0);
  EXPECT_LT(bridge_mbps, repeater_mbps);
}

TEST(Ttcp, RejectsBadConfig) {
  RepeaterFixture f;
  TtcpConfig zero_write;
  zero_write.destination = f.host_b->ip();
  zero_write.write_size = 0;
  EXPECT_THROW(TtcpSender(*f.host_a, zero_write), std::invalid_argument);
  TtcpConfig no_dst;
  EXPECT_THROW(TtcpSender(*f.host_a, no_dst), std::invalid_argument);
}

}  // namespace
}  // namespace ab::apps
