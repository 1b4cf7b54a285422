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
    node->add_port(site.net.add_nic(site.arena, name + ".eth" + std::to_string(port++),
                                    *site.lans[static_cast<std::size_t>(lan)],
                                    netsim::mac_of_id(site.draw_mac_id())));
  }
  if (options.dumb) node->load_dumb();
  if (options.learning) node->load_learning();
  if (options.stp) node->load_ieee();
  if (options.netloader) node->load_netloader();
  return node;
}

PlannedHosts::PlannedHosts(const netsim::Topology& shape, std::size_t tx_queue_limit)
    : shape_(shape),
      tx_queue_limit_(tx_queue_limit),
      sites_(shape.segments.size()),
      hosts_(shape.hosts.size(), nullptr) {}

void assemble_host(const AssemblySite& site, PlannedHosts& hosts, std::size_t ordinal) {
  const netsim::Topology::HostAttach& h = hosts.shape_.hosts[ordinal];
  const auto l = static_cast<std::size_t>(h.lan);
  netsim::LanSegment& lan = *site.lans[l];
  const std::uint32_t id = site.draw_mac_id();
  if (ordinal == 0) hosts.first_mac_id_ = id;
  if (id != hosts.first_mac_id_ + ordinal) {
    throw std::logic_error(
        "assemble_host: hosts are planned in ordinal order, back to back");
  }
  PlannedHosts::Site& built_at = hosts.sites_[l];
  if (built_at.lan == nullptr) {
    built_at = {&site.net, &site.arena, &lan};
    lan.set_station_factory(&PlannedHosts::build, &hosts);
  }
  lan.plan_station(netsim::mac_of_id(id), topology_host_ip(ordinal).value(),
                   static_cast<std::uint32_t>(ordinal));
}

netsim::Nic& PlannedHosts::build(void* self, std::uint32_t ordinal) {
  PlannedHosts& hosts = *static_cast<PlannedHosts*>(self);
  const netsim::Topology::HostAttach& h = hosts.shape_.hosts[ordinal];
  const Site& site = hosts.sites_[static_cast<std::size_t>(h.lan)];
  stack::HostConfig cfg;
  cfg.ip = topology_host_ip(ordinal);
  // No eager ARP reserve: the flat cache grows on a station's FIRST
  // resolution. The NIC's name is the plan's key: it spells
  // host<lan>_<index> on demand and stores nothing. The NIC comes first in
  // the arena, so teardown runs the stack's destructor before it.
  auto* nic = site.arena->create<netsim::Nic>(
      site.net->scheduler(), h.key(), netsim::mac_of_id(hosts.first_mac_id_ + ordinal));
  auto* host = site.arena->create<stack::HostStack>(site.net->scheduler(), *nic, cfg);
  nic->set_tx_queue_limit(hosts.tx_queue_limit_);
  // One slot per host: regions building on their own threads write
  // disjoint slots.
  hosts.hosts_[ordinal] = host;
  return *nic;
}

stack::HostStack& PlannedHosts::host(std::size_t i) {
  if (hosts_[i] == nullptr) {
    const auto ordinal = static_cast<std::uint32_t>(i);
    const Site& site = sites_[static_cast<std::size_t>(shape_.hosts[i].lan)];
    site.lan->build_station(netsim::mac_of_id(first_mac_id_ + ordinal), ordinal);
  }
  return *hosts_[i];
}

std::size_t PlannedHosts::built() const {
  return static_cast<std::size_t>(
      std::count_if(hosts_.begin(), hosts_.end(), [](const stack::HostStack* h) {
        return h != nullptr;
      }));
}

BridgedTopology::BridgedTopology(netsim::Network& net, const netsim::TopologySpec& spec,
                                 BridgeNodeConfig node_config,
                                 const TopologyBuildOptions& options)
    : shape{netsim::TopologyBuilder::build(spec), {}},
      hosts_(shape, options.host_tx_queue_limit) {
  for (const netsim::Topology::Segment& seg : shape.segments) {
    shape.lans.push_back(&net.add_segment(seg.name, seg.config));
  }
  // Port NICs and stations are arena-owned; the BridgeNode shells
  // (destroyed before the arena -- declaration order) stay on the heap.
  const AssemblySite site{net, arena, shape.lans};
  for (std::size_t i = 0; i < shape.node_lans.size(); ++i) {
    bridges.push_back(assemble_bridge(site, shape, i, node_config, options));
  }
  for (std::size_t ordinal = 0; ordinal < shape.hosts.size(); ++ordinal) {
    assemble_host(site, hosts_, ordinal);
  }
}

BridgedTopology build_topology(netsim::Network& net, const netsim::TopologySpec& spec,
                               BridgeNodeConfig node_config,
                               TopologyBuildOptions options) {
  return BridgedTopology(net, spec, std::move(node_config), options);
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
