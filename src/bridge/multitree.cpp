#include "src/bridge/multitree.h"

#include <algorithm>

namespace ab::bridge {
namespace {

constexpr std::uint8_t kCodecVersion = 1;

/// A config BPDU's payload: version, tree and type octets, the
/// topology-change flag, root and bridge IDs (2 + 6 each), root path cost,
/// port ID and the three timers (4 each). A TCN stops after the type.
constexpr std::size_t kConfigBpduSize = 3 + 1 + 8 + 4 + 8 + 2 + 3 * 4;

// Deterministic per-(bridge, tree) priority: different bridges prefer to
// root different trees, which is the whole point of the multiplicity.
std::uint16_t tree_priority(ether::MacAddress mac, int tree) {
  // Mix the tree id into the low bits *before* the multiplicative hash so
  // it diffuses into every output bit.
  const std::uint64_t h =
      (mac.value() ^ (static_cast<std::uint64_t>(tree) * 0xD6E8FEB86659FD93ull)) *
      0x9E3779B97F4A7C15ull;
  // Keep priorities in a band below the 802.1D default so diversity, not
  // MAC order, decides the roots; never zero.
  return static_cast<std::uint16_t>(0x1000 + ((h >> 40) & 0x3FFF));
}

void write_bridge_id(util::BufWriter& w, const BridgeId& id) {
  w.u16(id.priority);
  id.mac.write(w);
}

BridgeId read_bridge_id(util::BufReader& r) {
  BridgeId id;
  id.priority = r.u16();
  id.mac = ether::MacAddress::read(r);
  return id;
}

}  // namespace

ether::Frame MultiTreeBpduCodec::encode(std::uint8_t tree, const Bpdu& bpdu,
                                        ether::MacAddress src) {
  util::BufWriter w(kConfigBpduSize);
  w.u8(kCodecVersion);
  w.u8(tree);
  w.u8(bpdu.type == BpduType::kTcn ? 1 : 0);
  if (bpdu.type == BpduType::kConfig) {
    w.u8(bpdu.topology_change ? 1 : 0);
    write_bridge_id(w, bpdu.root);
    w.u32(bpdu.root_path_cost);
    write_bridge_id(w, bpdu.bridge);
    w.u16(bpdu.port_id);
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.max_age).count()));
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.hello_time)
            .count()));
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.forward_delay)
            .count()));
  }
  return ether::Frame::ethernet2(group_address(), src, ether::EtherType::kMultiTreeStp,
                                 w.take());
}

util::Expected<MultiTreeBpduCodec::Decoded, std::string> MultiTreeBpduCodec::decode(
    const ether::Frame& frame) {
  if (!frame.has_type(ether::EtherType::kMultiTreeStp)) {
    return util::Unexpected{std::string("not a multi-tree STP frame")};
  }
  try {
    util::BufReader r(frame.payload);
    if (r.u8() != kCodecVersion) {
      return util::Unexpected{std::string("unknown multi-tree codec version")};
    }
    Decoded out;
    out.tree = r.u8();
    const bool tcn = r.u8() != 0;
    if (tcn) {
      out.bpdu.type = BpduType::kTcn;
      return out;
    }
    out.bpdu.type = BpduType::kConfig;
    out.bpdu.topology_change = r.u8() != 0;
    out.bpdu.root = read_bridge_id(r);
    out.bpdu.root_path_cost = r.u32();
    out.bpdu.bridge = read_bridge_id(r);
    out.bpdu.port_id = r.u16();
    out.bpdu.max_age = std::chrono::milliseconds(r.u32());
    out.bpdu.hello_time = std::chrono::milliseconds(r.u32());
    out.bpdu.forward_delay = std::chrono::milliseconds(r.u32());
    return out;
  } catch (const util::BufferUnderflow& e) {
    return util::Unexpected{std::string("truncated multi-tree BPDU: ") + e.what()};
  }
}

MultiTreeSwitchlet::MultiTreeSwitchlet(std::shared_ptr<ForwardingPlane> plane,
                                       MultiTreeConfig config)
    : plane_(std::move(plane)), config_(config) {
  if (!plane_) throw std::invalid_argument("MultiTreeSwitchlet: null plane");
  if (config_.trees < 1 || config_.trees > 16) {
    throw std::invalid_argument("MultiTreeSwitchlet: trees must be 1..16");
  }
}

std::size_t MultiTreeSwitchlet::port_index(active::PortId id) const {
  for (std::size_t i = 0; i < port_ids_.size(); ++i) {
    if (port_ids_[i] == id) return i;
  }
  throw std::out_of_range("multitree: unknown port");
}

int MultiTreeSwitchlet::tree_of(ether::MacAddress src) const {
  const std::uint64_t h = (src.value() * 0x9E3779B97F4A7C15ull) >> 32;
  return static_cast<int>(h % static_cast<std::uint64_t>(config_.trees));
}

StpEngine* MultiTreeSwitchlet::engine(int tree) {
  if (tree < 0 || static_cast<std::size_t>(tree) >= trees_.size()) return nullptr;
  return trees_[static_cast<std::size_t>(tree)].engine.get();
}

void MultiTreeSwitchlet::start(active::SafeEnv& env) {
  env_ = &env;
  port_ids_ = plane_->port_ids();
  if (port_ids_.empty()) {
    throw std::runtime_error(
        "bridge.multitree: bridge ports not populated (load bridge.dumb first)");
  }
  ether::MacAddress bridge_mac = env.ports().interface_mac(port_ids_[0]);
  for (active::PortId id : port_ids_) {
    bridge_mac = std::min(bridge_mac, env.ports().interface_mac(id));
  }

  trees_.clear();
  frames_per_tree_.assign(static_cast<std::size_t>(config_.trees), 0);
  for (int t = 0; t < config_.trees; ++t) {
    trees_.push_back(Tree{});
    Tree& tree = trees_.back();
    tree.port_state.assign(port_ids_.size(), StpPortState::kBlocking);
    tree.table = MacTable(config_.mac_aging);

    StpConfig stp = config_.stp;
    stp.priority = tree_priority(bridge_mac, t);

    StpEngine::Callbacks callbacks;
    callbacks.send = [this, t](active::PortId port, const Bpdu& bpdu) {
      const ether::MacAddress src = env_->ports().interface_mac(port);
      env_->ports().send_on(
          port, MultiTreeBpduCodec::encode(static_cast<std::uint8_t>(t), bpdu, src));
    };
    callbacks.set_state = [this, t](active::PortId port, StpPortState state) {
      trees_[static_cast<std::size_t>(t)].port_state[port_index(port)] = state;
    };
    callbacks.topology_change = [this, t](bool active) {
      trees_[static_cast<std::size_t>(t)].table.set_fast_aging(active);
    };
    tree.engine = std::make_unique<StpEngine>(
        env.timers(), stp, bridge_mac, port_ids_, std::move(callbacks), &env.log(),
        "multitree." + std::to_string(t));
  }

  env.demux().register_address(MultiTreeBpduCodec::group_address(),
                               [this](const active::Packet& p) { on_group_frame(p); });
  previous_ = plane_->set_switch_function(
      [this](const active::Packet& p) { switch_function(p); });
  for (Tree& tree : trees_) tree.engine->start();
  running_ = true;
  env.funcs().register_func("bridge.multitree.trees", [this](const std::string&) {
    return std::to_string(config_.trees);
  });
  env.log().info("bridge.multitree",
                 "running " + std::to_string(config_.trees) + " spanning trees");
}

void MultiTreeSwitchlet::stop() {
  if (!running_) return;
  for (Tree& tree : trees_) tree.engine->stop();
  env_->demux().unregister_address(MultiTreeBpduCodec::group_address());
  plane_->set_switch_function(std::move(previous_));
  env_->funcs().unregister_func("bridge.multitree.trees");
  running_ = false;
}

void MultiTreeSwitchlet::on_group_frame(const active::Packet& packet) {
  if (!running_) return;
  auto decoded = MultiTreeBpduCodec::decode(packet.frame());
  if (!decoded) {
    undecodable_ += 1;
    return;
  }
  if (decoded->tree >= trees_.size()) return;  // more trees than we run
  trees_[decoded->tree].engine->receive(packet.ingress, decoded->bpdu);
}

bool MultiTreeSwitchlet::may_learn(const Tree& tree, active::PortId id) const {
  const StpPortState s = tree.port_state[port_index(id)];
  return s == StpPortState::kLearning || s == StpPortState::kForwarding;
}

bool MultiTreeSwitchlet::may_forward(const Tree& tree, active::PortId id) const {
  return tree.port_state[port_index(id)] == StpPortState::kForwarding;
}

void MultiTreeSwitchlet::flood_tree(const Tree& tree, const ether::WireFrame& frame,
                                    active::PortId except) {
  for (active::PortId id : port_ids_) {
    if (id == except || !may_forward(tree, id)) continue;
    plane_->send_to(id, frame);
  }
}

void MultiTreeSwitchlet::switch_function(const active::Packet& packet) {
  const ether::Frame& frame = packet.frame();
  // SC88 invariant: everything addressed to host H (including unknown-
  // destination floods seeking H) travels H's tree; group traffic travels
  // the source's tree. Then every bridge learns a host's location from
  // that host's broadcasts -- which travel the host's own tree -- and
  // lookups along that tree are consistent with forwarding along it.
  const int travel =
      frame.dst.is_group() ? tree_of(frame.src) : tree_of(frame.dst);
  Tree& tree = trees_[static_cast<std::size_t>(travel)];
  frames_per_tree_[static_cast<std::size_t>(travel)] += 1;

  // Learn the source only when this frame travels the source's own tree;
  // its ingress port on some *other* tree is not where tree(src) traffic
  // toward the source should go.
  if (tree_of(frame.src) == travel && may_learn(tree, packet.ingress)) {
    tree.table.learn(frame.src, packet.ingress, packet.received_at);
  }
  if (!may_forward(tree, packet.ingress)) {
    plane_->stats().dropped_ingress += 1;
    return;
  }
  if (frame.dst.is_group()) {
    flood_tree(tree, packet.wire, packet.ingress);
    return;
  }
  const auto port = tree.table.lookup(frame.dst, packet.received_at);
  if (!port.has_value()) {
    flood_tree(tree, packet.wire, packet.ingress);
    return;
  }
  if (*port == packet.ingress) {
    plane_->stats().dropped_local += 1;
    return;
  }
  if (may_forward(tree, *port)) plane_->send_to(*port, packet.wire);
}

}  // namespace ab::bridge
