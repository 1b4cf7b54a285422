#include "src/bridge/bridge_node.h"

namespace ab::bridge {
namespace {

active::ActiveNodeConfig node_config(const BridgeNodeConfig& cfg) {
  active::ActiveNodeConfig nc;
  nc.name = cfg.name;
  nc.cost = cfg.cost;
  nc.log_sink = cfg.log_sink;
  return nc;
}

}  // namespace

BridgeNode::BridgeNode(netsim::Scheduler& scheduler, BridgeNodeConfig config)
    : config_(std::move(config)),
      node_(scheduler, node_config(config_)),
      plane_(std::make_shared<ForwardingPlane>()) {
  // Factories for network-delivered (kNamed) images. Each captures the
  // shared plane, exactly as the paper's loaded byte codes close over the
  // access points of previously loaded modules.
  auto plane = plane_;
  const StpConfig stp = config_.stp;
  const netsim::Duration aging = config_.mac_aging;
  node_.loader().registry().add("bridge.dumb", [plane] {
    return std::make_unique<DumbBridgeSwitchlet>(plane);
  });
  node_.loader().registry().add("bridge.learning", [plane, aging] {
    return std::make_unique<LearningBridgeSwitchlet>(plane, aging);
  });
  node_.loader().registry().add("stp.ieee",
                                [plane, stp] { return make_ieee_stp(plane, stp); });
  node_.loader().registry().add("stp.dec",
                                [plane, stp] { return make_dec_stp(plane, stp); });
  auto* loader = &node_.loader();
  node_.loader().registry().add("bridge.control", [loader] {
    return std::make_unique<ControlSwitchlet>(*loader);
  });
  node_.loader().registry().add("bridge.policy", [plane] {
    return std::make_unique<PolicySwitchlet>(plane);
  });
  node_.loader().registry().add("bridge.monitor", [plane] {
    return std::make_unique<MonitorSwitchlet>(plane);
  });
  node_.loader().registry().add("bridge.multitree", [plane] {
    return std::make_unique<MultiTreeSwitchlet>(plane, MultiTreeConfig{});
  });
}

active::PortId BridgeNode::add_port(netsim::Nic& nic) { return node_.add_port(nic); }

DumbBridgeSwitchlet* BridgeNode::load_dumb() {
  auto loaded = node_.loader().load_instance(
      std::make_unique<DumbBridgeSwitchlet>(plane_));
  return static_cast<DumbBridgeSwitchlet*>(loaded.value());
}

LearningBridgeSwitchlet* BridgeNode::load_learning() {
  auto loaded = node_.loader().load_instance(
      std::make_unique<LearningBridgeSwitchlet>(plane_, config_.mac_aging));
  return static_cast<LearningBridgeSwitchlet*>(loaded.value());
}

StpSwitchlet* BridgeNode::load_ieee(bool autostart) {
  auto loaded = node_.loader().load_instance(make_ieee_stp(plane_, config_.stp),
                                             nullptr, autostart);
  return static_cast<StpSwitchlet*>(loaded.value());
}

StpSwitchlet* BridgeNode::load_dec(bool autostart) {
  auto loaded = node_.loader().load_instance(make_dec_stp(plane_, config_.stp),
                                             nullptr, autostart);
  return static_cast<StpSwitchlet*>(loaded.value());
}

ControlSwitchlet* BridgeNode::load_control(ControlConfig config) {
  auto loaded = node_.loader().load_instance(
      std::make_unique<ControlSwitchlet>(node_.loader(), std::move(config)));
  return static_cast<ControlSwitchlet*>(loaded.value());
}

active::NetLoaderSwitchlet* BridgeNode::load_netloader() {
  if (!config_.loader_ip.has_value()) {
    throw std::logic_error("BridgeNode: loader_ip not configured");
  }
  auto loaded = node_.loader().load_instance(
      std::make_unique<active::NetLoaderSwitchlet>(
          active::NetLoaderConfig{*config_.loader_ip}, node_.loader()));
  return static_cast<active::NetLoaderSwitchlet*>(loaded.value());
}

PolicySwitchlet* BridgeNode::load_policy() {
  auto loaded =
      node_.loader().load_instance(std::make_unique<PolicySwitchlet>(plane_));
  return static_cast<PolicySwitchlet*>(loaded.value());
}

MonitorSwitchlet* BridgeNode::load_monitor() {
  auto loaded =
      node_.loader().load_instance(std::make_unique<MonitorSwitchlet>(plane_));
  return static_cast<MonitorSwitchlet*>(loaded.value());
}

MultiTreeSwitchlet* BridgeNode::load_multitree(MultiTreeConfig config) {
  auto loaded = node_.loader().load_instance(
      std::make_unique<MultiTreeSwitchlet>(plane_, config));
  return static_cast<MultiTreeSwitchlet*>(loaded.value());
}

void BridgeNode::load_standard_bridge() {
  load_dumb();
  load_learning();
  load_ieee();
}

ControlSwitchlet* BridgeNode::load_transition_suite(ControlConfig config) {
  load_dumb();
  load_learning();
  load_dec(/*autostart=*/true);
  load_ieee(/*autostart=*/false);
  return load_control(std::move(config));
}

}  // namespace ab::bridge
