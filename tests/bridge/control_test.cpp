// The automatic protocol transition (paper section 5.4, Table 1): pass
// path, validation-failure fallback, and late-old-packet fallback.
#include "src/bridge/control.h"

#include <gtest/gtest.h>

#include "tests/bridge/bridge_test_util.h"

namespace ab::bridge {
namespace {

using testing::RingFixture;

/// Loads the full transition suite on every ring bridge and converges the
/// DEC protocol.
struct TransitionRing {
  RingFixture ring;
  std::vector<ControlSwitchlet*> controls;

  explicit TransitionRing(ControlConfig cfg = {}) : ring(3) {
    for (auto& b : ring.bridges) {
      controls.push_back(b->load_transition_suite(cfg));
    }
    // Let the old (DEC) protocol converge.
    ring.sched.run_for(netsim::seconds(45));
  }

  /// Injects the trigger: one IEEE BPDU on lan0 (the paper injects it from
  /// a measurement host).
  void inject_ieee_trigger() {
    auto& probe = ring.topo.add_station_nic("trigger", 0);
    IeeeBpduCodec ieee;
    Bpdu b;
    b.root = BridgeId{0x8000, probe.mac()};
    b.bridge = b.root;
    b.port_id = 0x8001;
    probe.transmit(ieee.encode(b, probe.mac()));
  }

  active::SwitchletState state(int i, const std::string& name) {
    return ring.bridges[static_cast<std::size_t>(i)]->node().loader().state_of(name);
  }
};

TEST(ProtocolTransition, PreconditionsEnforced) {
  RingFixture ring(1);
  auto& b = *ring.bridges[0];
  b.load_dumb();
  b.load_learning();
  // Control without either protocol loaded: start fails, loader contains it.
  auto loaded = b.node().loader().load_instance(
      std::make_unique<ControlSwitchlet>(b.node().loader()));
  EXPECT_FALSE(loaded.has_value());

  // DEC loaded but NOT running: still refused.
  b.load_dec(/*autostart=*/false);
  b.load_ieee(/*autostart=*/false);
  auto loaded2 = b.node().loader().load_instance(
      std::make_unique<ControlSwitchlet>(b.node().loader()));
  EXPECT_FALSE(loaded2.has_value());

  // DEC running, IEEE idle: accepted.
  b.node().loader().start("stp.dec");
  auto loaded3 = b.node().loader().load_instance(
      std::make_unique<ControlSwitchlet>(b.node().loader()));
  EXPECT_TRUE(loaded3.has_value());
}

TEST(ProtocolTransition, HappyPathUpgradesAllBridges) {
  TransitionRing t;
  // Before the trigger: DEC running, IEEE loaded, control monitoring.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.state(i, "stp.dec"), active::SwitchletState::kRunning);
    EXPECT_EQ(t.state(i, "stp.ieee"), active::SwitchletState::kLoaded);
    EXPECT_EQ(t.controls[static_cast<std::size_t>(i)]->phase(),
              TransitionPhase::kMonitoring);
  }

  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(1));

  // The trigger cascades: every bridge transitions (the started IEEE
  // protocol "sends out configuration packets on all of its ports thus
  // causing any bridge... that has not transitioned to do so").
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.state(i, "stp.dec"), active::SwitchletState::kSuspended) << i;
    EXPECT_EQ(t.state(i, "stp.ieee"), active::SwitchletState::kRunning) << i;
    EXPECT_EQ(t.controls[static_cast<std::size_t>(i)]->phase(),
              TransitionPhase::kTransitioning);
    EXPECT_TRUE(t.controls[static_cast<std::size_t>(i)]->captured_old_tree()
                    .has_value());
  }

  // After the 60 s validation point: pass everywhere.
  t.ring.sched.run_for(netsim::seconds(70));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.controls[static_cast<std::size_t>(i)]->phase(),
              TransitionPhase::kValidated)
        << i;
    EXPECT_EQ(t.state(i, "stp.ieee"), active::SwitchletState::kRunning);
  }
  // The new tree matches the old one: 1 blocked, 5 forwarding.
  EXPECT_EQ(t.ring.count_gates(PortGate::kBlocked), 1);
}

TEST(ProtocolTransition, EventsReproduceTable1Shape) {
  TransitionRing t;
  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(70));
  const auto& events = t.controls[0]->events();
  ASSERT_GE(events.size(), 5u);
  EXPECT_EQ(events[0].action, "load/start control");
  EXPECT_NE(events[1].action.find("recv ieee packet"), std::string::npos);
  EXPECT_NE(events[1].control_note.find("suspend dec"), std::string::npos);
  EXPECT_NE(events[2].control_note.find("start ieee"), std::string::npos);
  bool saw_pass = false;
  for (const auto& e : events) {
    if (e.action == "perform tests") {
      EXPECT_EQ(e.control_note, "pass");
      saw_pass = true;
    }
  }
  EXPECT_TRUE(saw_pass);
}

TEST(ProtocolTransition, OldPacketsDuringWindowAreSuppressed) {
  TransitionRing t;
  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(1));
  // A laggard (un-upgraded) device still babbling DEC during the window.
  auto& laggard = t.ring.topo.add_station_nic("laggard", 1);
  DecBpduCodec dec;
  Bpdu b;
  b.root = BridgeId{0x8000, laggard.mac()};
  b.bridge = b.root;
  laggard.transmit(dec.encode(b, laggard.mac()));
  t.ring.sched.run_for(netsim::seconds(5));
  // Suppressed: nobody fell back.
  std::uint64_t suppressed = 0;
  for (auto* c : t.controls) {
    EXPECT_NE(c->phase(), TransitionPhase::kFallback);
    suppressed += c->suppressed_old_packets();
  }
  EXPECT_GT(suppressed, 0u);
}

TEST(ProtocolTransition, ValidationFailureFallsBack) {
  // Fault injection through the validator hook: the "new protocol" is
  // declared buggy on every bridge.
  ControlConfig cfg;
  cfg.validator = [](const StpSnapshot&, const StpSnapshot&) { return false; };
  TransitionRing t(cfg);
  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(90));

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.controls[static_cast<std::size_t>(i)]->phase(),
              TransitionPhase::kFallback)
        << i;
    // Fallback restarted the old protocol and stopped the new one.
    EXPECT_EQ(t.state(i, "stp.dec"), active::SwitchletState::kRunning) << i;
    EXPECT_EQ(t.state(i, "stp.ieee"), active::SwitchletState::kStopped) << i;
  }
  // The DEC protocol reconverges to a sane tree.
  t.ring.sched.run_for(netsim::seconds(45));
  EXPECT_EQ(t.ring.count_gates(PortGate::kBlocked), 1);
}

TEST(ProtocolTransition, LateOldPacketAfterWindowFallsBack) {
  // Close the window quickly so the test stays sharp.
  ControlConfig cfg;
  cfg.suppress_window = netsim::seconds(5);
  cfg.validate_after = netsim::seconds(300);  // validation far away
  TransitionRing t(cfg);
  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(10));  // window closed

  auto& laggard = t.ring.topo.add_station_nic("laggard", 0);
  DecBpduCodec dec;
  Bpdu b;
  b.root = BridgeId{0x8000, laggard.mac()};
  b.bridge = b.root;
  laggard.transmit(dec.encode(b, laggard.mac()));
  t.ring.sched.run_for(netsim::seconds(5));

  // At least the bridges on lan0 saw the late DEC packet and fell back.
  int fallbacks = 0;
  for (auto* c : t.controls) {
    if (c->phase() == TransitionPhase::kFallback) ++fallbacks;
  }
  EXPECT_GE(fallbacks, 1);
}

TEST(ProtocolTransition, FallbackSuppressesNewProtocolPackets) {
  ControlConfig cfg;
  cfg.validator = [](const StpSnapshot&, const StpSnapshot&) { return false; };
  TransitionRing t(cfg);
  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(90));
  ASSERT_EQ(t.controls[0]->phase(), TransitionPhase::kFallback);

  // A stray IEEE packet now: suppressed, no re-transition ("no further
  // transition will occur without human intervention").
  t.inject_ieee_trigger();
  t.ring.sched.run_for(netsim::seconds(5));
  std::uint64_t suppressed = 0;
  for (auto* c : t.controls) {
    EXPECT_EQ(c->phase(), TransitionPhase::kFallback);
    suppressed += c->suppressed_new_packets();
  }
  EXPECT_GT(suppressed, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.state(i, "stp.ieee"), active::SwitchletState::kStopped);
    EXPECT_EQ(t.state(i, "stp.dec"), active::SwitchletState::kRunning);
  }
}

TEST(ProtocolTransition, TransitionPhaseNames) {
  EXPECT_EQ(to_string(TransitionPhase::kMonitoring), "monitoring");
  EXPECT_EQ(to_string(TransitionPhase::kTransitioning), "transitioning");
  EXPECT_EQ(to_string(TransitionPhase::kValidated), "validated");
  EXPECT_EQ(to_string(TransitionPhase::kFallback), "fallback");
}

}  // namespace
}  // namespace ab::bridge
