#include "src/bridge/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ab::bridge {

namespace {

/// Raw-pointer view of a BridgedTopology's owned bridges, for the
/// span-based aggregate helpers shared with the sharded builder.
std::vector<BridgeNode*> bridge_view(
    const std::vector<std::unique_ptr<BridgeNode>>& owned) {
  std::vector<BridgeNode*> view;
  view.reserve(owned.size());
  for (const auto& b : owned) view.push_back(b.get());
  return view;
}

}  // namespace

int count_gates(std::span<BridgeNode* const> bridges, PortGate gate) {
  int count = 0;
  for (BridgeNode* b : bridges) {
    for (const auto& p : b->plane().bridge_ports()) {
      if (p.gate == gate) ++count;
    }
  }
  return count;
}

std::vector<StpEngine*> stp_engines(std::span<BridgeNode* const> bridges) {
  std::vector<StpEngine*> engines;
  for (BridgeNode* b : bridges) {
    auto* stp = dynamic_cast<StpSwitchlet*>(b->node().loader().find("stp.ieee"));
    if (stp != nullptr && stp->engine() != nullptr) engines.push_back(stp->engine());
  }
  return engines;
}

bool stp_converged(std::span<BridgeNode* const> bridges) {
  const std::vector<StpEngine*> engines = stp_engines(bridges);
  if (engines.empty()) return false;
  int roots = 0;
  for (StpEngine* e : engines) {
    if (e->is_root()) ++roots;
    if (!(e->root_id() == engines.front()->root_id())) return false;
    for (const auto& p : e->snapshot().ports) {
      if (p.state == StpPortState::kListening || p.state == StpPortState::kLearning) {
        return false;
      }
    }
  }
  return roots == 1;
}

std::size_t mac_entries(std::span<BridgeNode* const> bridges) {
  std::size_t total = 0;
  for (BridgeNode* b : bridges) {
    auto* learning =
        dynamic_cast<LearningBridgeSwitchlet*>(b->node().loader().find("bridge.learning"));
    if (learning != nullptr) total += learning->table().size();
  }
  return total;
}

int BridgedTopology::count_gates(PortGate gate) const {
  return bridge::count_gates(bridge_view(bridges), gate);
}

std::vector<StpEngine*> BridgedTopology::stp_engines() const {
  return bridge::stp_engines(bridge_view(bridges));
}

bool BridgedTopology::stp_converged() const {
  return bridge::stp_converged(bridge_view(bridges));
}

std::size_t BridgedTopology::mac_entries() const {
  return bridge::mac_entries(bridge_view(bridges));
}

namespace {

/// Maps an ordinal into a 10.<base+?>.?.? slice, skipping low octets 0 and
/// 255 so nothing ever reads as a network/broadcast address.
stack::Ipv4Addr slice_ip(std::uint32_t second_octet_base, std::size_t ordinal,
                         std::size_t second_octet_span, const char* what) {
  const std::uint32_t low = static_cast<std::uint32_t>(ordinal % 254) + 1;
  const std::uint32_t rest = static_cast<std::uint32_t>(ordinal / 254);
  const std::uint32_t third = rest % 256;
  const std::uint32_t second = second_octet_base + rest / 256;
  if (second >= second_octet_base + second_octet_span) {
    throw std::invalid_argument(std::string("topology address plan: ") + what +
                                " ordinal overflows its 10/8 slice");
  }
  return stack::Ipv4Addr(10, static_cast<std::uint8_t>(second),
                         static_cast<std::uint8_t>(third),
                         static_cast<std::uint8_t>(low));
}

}  // namespace

stack::Ipv4Addr topology_host_ip(std::size_t ordinal) {
  // 10.0.0.1 .. 10.253.255.254: ~16.5M stations.
  return slice_ip(0, ordinal, 254, "host");
}

stack::Ipv4Addr topology_loader_ip(std::size_t ordinal) {
  return slice_ip(254, ordinal, 1, "loader");
}

stack::Ipv4Addr topology_admin_ip(std::size_t ordinal) {
  return slice_ip(255, ordinal, 1, "admin");
}

namespace {

netsim::Nic& add_nic(const AssemblySite& site, netsim::NicName name, int lan) {
  netsim::LanSegment& segment = *site.lans[static_cast<std::size_t>(lan)];
  if (site.mac_ids == nullptr) {
    return site.net.add_nic(site.arena, std::move(name), segment);
  }
  const std::uint32_t id = (*site.mac_ids)++;
  return site.net.add_nic(site.arena, std::move(name), segment,
                          ether::MacAddress::local(id >> 16, id & 0xFFFF));
}

}  // namespace

std::unique_ptr<BridgeNode> assemble_bridge(const AssemblySite& site,
                                            const netsim::Topology& shape, std::size_t i,
                                            BridgeNodeConfig config,
                                            const TopologyBuildOptions& options) {
  const std::string& name = shape.node_names[i];
  config.name = name;
  if (options.netloader) config.loader_ip = topology_loader_ip(i);
  auto node = std::make_unique<BridgeNode>(site.net.scheduler(), std::move(config));
  int port = 0;
  for (const int lan : shape.node_lans[i]) {
    node->add_port(add_nic(site, name + ".eth" + std::to_string(port++), lan));
  }
  if (options.dumb) node->load_dumb();
  if (options.learning) node->load_learning();
  if (options.stp) node->load_ieee();
  if (options.netloader) node->load_netloader();
  return node;
}

stack::HostStack* assemble_host(const AssemblySite& site,
                                const netsim::Topology& shape, std::size_t ordinal,
                                const TopologyBuildOptions& options) {
  const netsim::Topology::HostAttach& h = shape.hosts[ordinal];
  stack::HostConfig cfg;
  cfg.ip = topology_host_ip(ordinal);
  // No eager ARP reserve: the flat cache grows on a station's FIRST
  // resolution, so the (vast) idle majority of a big cell pay nothing.
  // An earlier per-host reserve proportional to hosts made topology
  // memory quadratic (~200 MB of empty buckets on a 5000-station star).
  // The NIC's name is the plan's key: it spells host<lan>_<index> on
  // demand and stores nothing, so an idle station's NIC holds no box.
  netsim::Nic& nic = add_nic(site, h.key(), h.lan);
  auto* host = site.arena.create<stack::HostStack>(site.net.scheduler(), nic, cfg);
  host->nic().set_tx_queue_limit(options.host_tx_queue_limit);
  return host;
}

BridgedTopology build_topology(netsim::Network& net, const netsim::TopologySpec& spec,
                               BridgeNodeConfig node_config,
                               TopologyBuildOptions options) {
  BridgedTopology built;
  netsim::Topology& plan = built.shape;
  plan = netsim::TopologyBuilder::build(spec);
  for (const netsim::Topology::Segment& seg : plan.segments) {
    built.shape.lans.push_back(&net.add_segment(seg.name, seg.config));
  }

  // Port NICs and stations are arena-owned; the BridgeNode shells
  // (destroyed before the arena -- declaration order) stay on the heap.
  const AssemblySite site{net, built.arena, built.shape.lans};
  for (std::size_t i = 0; i < plan.node_lans.size(); ++i) {
    built.bridges.push_back(assemble_bridge(site, plan, i, node_config, options));
  }
  built.hosts.reserve(plan.hosts.size());
  for (std::size_t ordinal = 0; ordinal < plan.hosts.size(); ++ordinal) {
    built.hosts.push_back(assemble_host(site, plan, ordinal, options));
  }
  return built;
}

RegionPlan partition_regions(const netsim::Topology& shape, int regions) {
  const int nodes = static_cast<int>(shape.node_lans.size());
  const std::size_t lans = shape.segments.size();
  RegionPlan plan;
  plan.regions = std::clamp(regions, 1, std::max(nodes, 1));
  plan.node_region.resize(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    // Contiguous blocks whose sizes differ by at most one: node i lands in
    // region i*R/N. Contiguity keeps line/ring/tree cuts to O(regions)
    // segments instead of scattering every inter-bridge link.
    plan.node_region[static_cast<std::size_t>(i)] =
        static_cast<int>(static_cast<long long>(i) * plan.regions / nodes);
  }

  plan.lan_regions.assign(lans, {});
  plan.lan_owner.assign(lans, 0);
  // Lowest-numbered attached node per LAN; `nodes` = none attached yet.
  std::vector<int> owner_node(lans, nodes);
  for (int i = 0; i < nodes; ++i) {
    for (const int lan : shape.node_lans[static_cast<std::size_t>(i)]) {
      const auto l = static_cast<std::size_t>(lan);
      std::vector<int>& rs = plan.lan_regions[l];
      const int r = plan.node_region[static_cast<std::size_t>(i)];
      if (std::find(rs.begin(), rs.end(), r) == rs.end()) rs.push_back(r);
      owner_node[l] = std::min(owner_node[l], i);
    }
  }

  for (std::size_t l = 0; l < lans; ++l) {
    std::vector<int>& rs = plan.lan_regions[l];
    std::sort(rs.begin(), rs.end());
    plan.lan_owner[l] =
        owner_node[l] == nodes
            ? 0  // every generated shape attaches each LAN, but stay safe
            : plan.node_region[static_cast<std::size_t>(owner_node[l])];
    if (rs.empty()) rs.push_back(plan.lan_owner[l]);
    if (rs.size() > 1) {
      const netsim::Duration prop = shape.segments[l].config.propagation;
      if (prop <= netsim::Duration::zero()) {
        throw std::invalid_argument(
            "partition_regions: cut segment " + shape.segments[l].name +
            " has zero propagation delay -- the conservative window needs "
            "lookahead >= 1ns on every cross-region link");
      }
      plan.lookahead = plan.cut_lans == 0 ? prop : std::min(plan.lookahead, prop);
      plan.cut_lans += 1;
    }
  }
  return plan;
}

}  // namespace ab::bridge
