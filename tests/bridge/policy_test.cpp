// The section 9 extension: per-user bandwidth policy as a loadable module.
#include "src/bridge/policy.h"

#include <gtest/gtest.h>

#include "src/apps/ttcp.h"
#include "tests/bridge/bridge_test_util.h"

namespace ab::bridge {
namespace {

using testing::TwoLanFixture;

struct PolicyFixture : TwoLanFixture {
  PolicySwitchlet* policy;

  PolicyFixture() {
    bridge->load_dumb();
    bridge->load_learning();
    policy = bridge->load_policy();
  }
};

TEST(PolicySwitchlet, RequiresABridgeToWrap) {
  TwoLanFixture f;
  // No dumb bridge loaded: nothing to wrap; loader contains the failure.
  auto loaded = f.bridge->node().loader().load_instance(
      std::make_unique<PolicySwitchlet>(f.bridge->plane_ptr()));
  EXPECT_FALSE(loaded.has_value());
}

TEST(PolicySwitchlet, UnconfiguredTrafficPassesUntouched) {
  PolicyFixture f;
  EXPECT_EQ(f.ping_a_to_b(3), 3);
}

TEST(PolicySwitchlet, RejectsBadRules) {
  PolicyFixture f;
  PolicyRule bad;
  bad.link_fraction = 0.0;
  EXPECT_THROW(f.policy->set_rule(f.host_a->nic().mac(), bad), std::invalid_argument);
  bad.link_fraction = 1.5;
  EXPECT_THROW(f.policy->set_rule(f.host_a->nic().mac(), bad), std::invalid_argument);
  bad.link_fraction = 0.5;
  bad.link_bps = 0;
  EXPECT_THROW(f.policy->set_rule(f.host_a->nic().mac(), bad), std::invalid_argument);
}

TEST(PolicySwitchlet, PolicesAnAggressiveSender) {
  PolicyFixture f;
  // Give hostA a 1% link fraction with a tiny burst, then blast.
  PolicyRule rule;
  rule.link_fraction = 0.01;
  rule.link_bps = 100e6;
  rule.burst_bytes = 4096;
  f.policy->set_rule(f.host_a->nic().mac(), rule);

  // Prime ARP within the burst allowance.
  ASSERT_EQ(f.ping_a_to_b(1), 1);

  f.host_a->nic().set_tx_queue_limit(1 << 20);
  apps::TtcpSink sink(f.sched, *f.host_b, 5001);
  apps::TtcpConfig cfg;
  cfg.destination = f.host_b->ip();
  cfg.write_size = 1024;
  cfg.total_bytes = 1 << 20;
  apps::TtcpSender sender(*f.host_a, cfg);
  sender.start();
  f.sched.run_for(netsim::seconds(10));

  const PolicyCounters* counters = f.policy->counters(f.host_a->nic().mac());
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->policed_frames, 0u);
  // Goodput must be near the policed rate (1% of 100 Mb/s = 1 Mb/s),
  // far below the unpoliced bridge rate.
  EXPECT_LT(sink.throughput_mbps(), 2.0);
}

TEST(PolicySwitchlet, ConformingTrafficWithinFraction) {
  PolicyFixture f;
  PolicyRule rule;
  rule.link_fraction = 0.5;  // generous
  rule.burst_bytes = 1 << 20;
  f.policy->set_rule(f.host_a->nic().mac(), rule);
  EXPECT_EQ(f.ping_a_to_b(5), 5);
  const PolicyCounters* counters = f.policy->counters(f.host_a->nic().mac());
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->policed_frames, 0u);
  EXPECT_GT(counters->conforming_frames, 0u);
}

TEST(PolicySwitchlet, TokensRefillOverTime) {
  PolicyFixture f;
  PolicyRule rule;
  rule.link_fraction = 0.1;
  rule.burst_bytes = 2048;  // about two pings' worth
  f.policy->set_rule(f.host_a->nic().mac(), rule);
  ASSERT_GE(f.ping_a_to_b(1), 1);
  // Drain the bucket with a burst...
  int burst_replies = 0;
  f.host_a->set_echo_handler(
      [&](const stack::HostStack::EchoReply&) { ++burst_replies; });
  for (int i = 0; i < 10; ++i) {
    f.host_a->send_echo_request(f.host_b->ip(), 9, static_cast<std::uint16_t>(i),
                                util::ByteBuffer(1000, 0));
  }
  f.sched.run_for(netsim::milliseconds(100));
  EXPECT_LT(burst_replies, 10);  // some were policed
  // ...then wait for refill; a later ping conforms again.
  f.sched.run_for(netsim::seconds(5));
  f.host_a->send_echo_request(f.host_b->ip(), 9, 99, util::ByteBuffer(1000, 0));
  f.sched.run_for(netsim::seconds(1));
  EXPECT_GT(burst_replies, 0);
}

TEST(PolicySwitchlet, StopRestoresUnpolicedPath) {
  PolicyFixture f;
  PolicyRule rule;
  rule.link_fraction = 0.01;
  rule.burst_bytes = 0;  // everything policed
  f.policy->set_rule(f.host_a->nic().mac(), rule);
  EXPECT_EQ(f.ping_a_to_b(2), 0);  // fully blocked
  ASSERT_TRUE(f.bridge->node().loader().stop("bridge.policy"));
  EXPECT_EQ(f.ping_a_to_b(2), 2);  // policy removed, traffic flows
}

TEST(PolicySwitchlet, ClearRuleRemovesEnforcement) {
  PolicyFixture f;
  PolicyRule rule;
  rule.link_fraction = 0.01;
  rule.burst_bytes = 0;
  f.policy->set_rule(f.host_a->nic().mac(), rule);
  EXPECT_EQ(f.ping_a_to_b(1), 0);
  f.policy->clear_rule(f.host_a->nic().mac());
  EXPECT_EQ(f.ping_a_to_b(1), 1);
  EXPECT_EQ(f.policy->counters(f.host_a->nic().mac()), nullptr);
}

TEST(PolicySwitchlet, FuncRegistryReportsRuleCount) {
  PolicyFixture f;
  EXPECT_EQ(f.bridge->node().funcs().eval("bridge.policy.rules").value(), "0");
  f.policy->set_rule(f.host_a->nic().mac(), PolicyRule{});
  EXPECT_EQ(f.bridge->node().funcs().eval("bridge.policy.rules").value(), "1");
}

}  // namespace
}  // namespace ab::bridge
