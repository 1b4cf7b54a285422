// BridgeNode: the assembled active bridge -- an ActiveNode plus the shared
// forwarding plane and a registry of the bridge switchlet factories, so the
// full paper scenario works both programmatically (load_* helpers) and over
// the network (TFTP-delivered kNamed images resolve to these factories).
#pragma once

#include <memory>
#include <optional>

#include "src/active/netloader.h"
#include "src/active/node.h"
#include "src/bridge/control.h"
#include "src/bridge/dumb.h"
#include "src/bridge/forwarding.h"
#include "src/bridge/learning.h"
#include "src/bridge/monitor.h"
#include "src/bridge/multitree.h"
#include "src/bridge/policy.h"
#include "src/bridge/stp_switchlet.h"

namespace ab::bridge {

struct BridgeNodeConfig {
  std::string name = "bridge";
  /// Per-frame software cost; CostModel::caml_bridge() for the paper's
  /// performance experiments.
  netsim::CostModel cost = netsim::CostModel::ideal();
  /// Spanning-tree parameters shared by both protocol variants.
  StpConfig stp;
  /// MAC-table aging for the learning switchlet.
  netsim::Duration mac_aging = netsim::seconds(300);
  /// When set, a network loader (TFTP at this IP) is available to load.
  std::optional<stack::Ipv4Addr> loader_ip;
  std::shared_ptr<util::LogSink> log_sink;
};

class BridgeNode {
 public:
  BridgeNode(netsim::Scheduler& scheduler, BridgeNodeConfig config = {});

  /// Attach a NIC as a bridge port (before loading the dumb switchlet).
  active::PortId add_port(netsim::Nic& nic);

  [[nodiscard]] active::ActiveNode& node() { return node_; }
  [[nodiscard]] ForwardingPlane& plane() { return *plane_; }
  [[nodiscard]] std::shared_ptr<ForwardingPlane> plane_ptr() { return plane_; }
  [[nodiscard]] const BridgeNodeConfig& config() const { return config_; }

  // ---- convenience loaders (each returns the running instance) ----

  /// Switchlet 1: the flooding buffered repeater.
  DumbBridgeSwitchlet* load_dumb();
  /// Switchlet 2: self-learning (replaces the switch function).
  LearningBridgeSwitchlet* load_learning();
  /// Switchlet 3: 802.1D spanning tree. With autostart false it is linked
  /// but idle, as the transition experiment requires.
  StpSwitchlet* load_ieee(bool autostart = true);
  /// The DEC-framed variant (the transition experiment's old protocol).
  StpSwitchlet* load_dec(bool autostart = true);
  /// The transition control switchlet.
  ControlSwitchlet* load_control(ControlConfig config = {});
  /// The four-layer network loader (requires config.loader_ip).
  active::NetLoaderSwitchlet* load_netloader();
  /// Extension: per-user bandwidth policy (the paper's section 9 example).
  PolicySwitchlet* load_policy();
  /// Extension: as-needed diagnostic tap (the paper's section 2 example).
  MonitorSwitchlet* load_monitor();
  /// Extension: Sincoskie-Cotton multiple spanning trees (section 9's
  /// scaling suggestion). Mutually exclusive with stp.ieee/stp.dec.
  MultiTreeSwitchlet* load_multitree(MultiTreeConfig config = {});

  /// Loads the full standard bridge: dumb + learning + IEEE spanning tree.
  void load_standard_bridge();

  /// Loads the transition experiment's suite: dumb + learning + DEC
  /// (running) + IEEE (loaded, idle) + control.
  ControlSwitchlet* load_transition_suite(ControlConfig config = {});

 private:
  BridgeNodeConfig config_;
  active::ActiveNode node_;
  std::shared_ptr<ForwardingPlane> plane_;
};

}  // namespace ab::bridge
