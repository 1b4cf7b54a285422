#include "src/bridge/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ab::bridge {

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

stack::Ipv4Addr topology_host_ip(std::size_t ordinal) {
  return stack::Ipv4Addr(netsim::topology_host_ipv4(ordinal));
}

stack::Ipv4Addr topology_loader_ip(std::size_t ordinal) {
  return stack::Ipv4Addr(netsim::topology_loader_ipv4(ordinal));
}

stack::Ipv4Addr topology_admin_ip(std::size_t ordinal) {
  return stack::Ipv4Addr(netsim::topology_admin_ipv4(ordinal));
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
                                    netsim::mac_of_id(site.draw_mac_ids())));
  }
  if (options.dumb) node->load_dumb();
  if (options.learning) node->load_learning();
  if (options.stp) node->load_ieee();
  if (options.netloader) node->load_netloader();
  return node;
}

PlannedHosts::PlannedHosts(const netsim::Topology& shape, std::size_t tx_queue_limit)
    : shape_(shape), tx_queue_limit_(tx_queue_limit), lans_(shape.segments.size()) {}

void assemble_hosts(const AssemblySite& site, PlannedHosts& hosts, std::size_t lan) {
  const netsim::Topology::HostRange range = hosts.shape_.lan_hosts(lan);
  if (range.count == 0) return;
  const auto count = static_cast<std::uint32_t>(range.count);
  const std::uint32_t id = site.draw_mac_ids(count);
  if (range.first == 0) hosts.first_mac_id_ = id;
  if (id != hosts.first_mac_id_ + range.first) {
    throw std::logic_error("assemble_hosts: LANs are planned in order, back to back");
  }
  PlannedHosts::Lan& record = hosts.lans_[lan];
  netsim::LanSegment& segment = *site.lans[lan];
  record.net = &site.net;
  record.arena = &site.arena;
  record.segment = &segment;
  segment.set_station_factory(&PlannedHosts::build, &hosts);
  segment.plan_block(id, static_cast<std::uint32_t>(range.first), count);
}

std::vector<PlannedHosts::Built>::iterator PlannedHosts::slot(Lan& lan,
                                                              std::uint32_t index) {
  return std::lower_bound(lan.built.begin(), lan.built.end(), index,
                          [](const Built& b, std::uint32_t i) { return b.index < i; });
}

netsim::Nic& PlannedHosts::build(void* self, std::uint32_t ordinal) {
  PlannedHosts& hosts = *static_cast<PlannedHosts*>(self);
  const netsim::Topology::HostAttach h = hosts.shape_.host(ordinal);
  Lan& lan = hosts.lans_[static_cast<std::size_t>(h.lan)];
  stack::HostConfig cfg;
  cfg.ip = topology_host_ip(ordinal);
  // No eager ARP reserve: the flat cache grows on a station's FIRST
  // resolution. The NIC comes first in the arena, so teardown runs the
  // stack's destructor before it.
  auto* nic = lan.arena->create<netsim::Nic>(
      lan.net->scheduler(), h.name(), netsim::mac_of_id(hosts.first_mac_id_ + ordinal));
  auto* host = lan.arena->create<stack::HostStack>(lan.net->scheduler(), *nic, cfg);
  nic->set_tx_queue_limit(hosts.tx_queue_limit_);
  // Only the LAN's owning region builds its hosts, so regions building on
  // their own threads write disjoint records.
  const auto index = static_cast<std::uint32_t>(h.index);
  lan.built.insert(slot(lan, index), Built{index, host});
  return *nic;
}

stack::HostStack& PlannedHosts::host(std::size_t i) {
  const netsim::Topology::HostAttach h = shape_.host(i);
  Lan& lan = lans_[static_cast<std::size_t>(h.lan)];
  const auto index = static_cast<std::uint32_t>(h.index);
  auto at = slot(lan, index);
  if (at == lan.built.end() || at->index != index) {
    (void)lan.segment->build_station(static_cast<std::uint32_t>(i));
    at = slot(lan, index);
  }
  return *at->host;
}

std::size_t PlannedHosts::built() const {
  std::size_t total = 0;
  for (const Lan& lan : lans_) total += lan.built.size();
  return total;
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
