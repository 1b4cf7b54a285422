#include "src/bridge/sharded_topology.h"

#include <map>
#include <utility>

#include "src/netsim/cost_model.h"

namespace ab::bridge {

ShardedTopology::Region& ShardedTopology::owner_region(std::size_t l) {
  return *regions[static_cast<std::size_t>(plan.lan_owner[l])];
}

netsim::LanStats ShardedTopology::lan_stats(std::size_t l) const {
  netsim::LanStats total;
  for (const auto& region : regions) {
    const netsim::LanSegment* replica = region->replicas[l];
    if (replica == nullptr) continue;
    total.frames_carried += replica->stats().frames_carried;
    total.bytes_carried += replica->stats().bytes_carried;
    total.frames_lost += replica->stats().frames_lost;
    total.receivers_visited += replica->stats().receivers_visited;
    total.receivers_skipped += replica->stats().receivers_skipped;
  }
  return total;
}

std::size_t ShardedTopology::lan_attached(std::size_t l) const {
  std::size_t attached = 0;
  for (const auto& region : regions) {
    const netsim::LanSegment* replica = region->replicas[l];
    if (replica == nullptr) continue;
    for (const netsim::Nic* nic : replica->attached()) {
      if (nic != nullptr) attached += 1;
    }
  }
  return attached;
}

std::vector<netsim::Shard*> ShardedTopology::shard_handles() {
  std::vector<netsim::Shard*> handles;
  handles.reserve(regions.size());
  for (const auto& region : regions) handles.push_back(&region->sync);
  return handles;
}

int ShardedTopology::count_gates(PortGate gate) const {
  return bridge::count_gates(bridges, gate);
}

bool ShardedTopology::stp_converged() const { return bridge::stp_converged(bridges); }

std::size_t ShardedTopology::mac_entries() const {
  return bridge::mac_entries(bridges);
}

std::uint64_t ShardedTopology::events() const {
  std::uint64_t total = 0;
  for (const auto& region : regions) total += region->net.scheduler().executed();
  return total;
}

std::uint64_t ShardedTopology::heap_inserts() const {
  std::uint64_t total = 0;
  for (const auto& region : regions) total += region->net.scheduler().inserts();
  return total;
}

std::uint64_t ShardedTopology::scheduled_entries() const {
  std::uint64_t total = 0;
  for (const auto& region : regions) total += region->net.scheduler().scheduled();
  return total;
}

ShardedTopology build_sharded_topology(const netsim::TopologySpec& spec,
                                       int region_count,
                                       BridgeNodeConfig node_config,
                                       TopologyBuildOptions options) {
  ShardedTopology built;
  built.spec = spec;

  // Generate the shape in a throwaway Network: only the WIRING (which LANs
  // each node bridges, where hosts attach) is needed, as indices. The
  // builder is deterministic for a given spec, so this is exactly the
  // oracle's plan.
  netsim::Network plan_net;
  netsim::Topology shape = netsim::TopologyBuilder(plan_net).build(spec);
  built.plan = partition_regions(shape, region_count);
  const RegionPlan& plan = built.plan;

  std::map<const netsim::LanSegment*, int> lan_of;
  for (std::size_t l = 0; l < shape.lans.size(); ++l) {
    lan_of[shape.lans[l]] = static_cast<int>(l);
    built.lan_names.push_back(shape.lans[l]->name());
  }
  built.node_lans.reserve(shape.node_ports.size());
  for (const std::vector<netsim::LanSegment*>& ports : shape.node_ports) {
    std::vector<int>& lans = built.node_lans.emplace_back();
    for (const netsim::LanSegment* seg : ports) lans.push_back(lan_of.at(seg));
  }
  // The plan's host list is the biggest thing the shape holds (one entry
  // per station): take it rather than copy it.
  built.host_attach = std::move(shape.hosts);

  for (int r = 0; r < plan.regions; ++r) {
    built.regions.push_back(std::make_unique<ShardedTopology::Region>());
    built.regions.back()->replicas.assign(shape.lans.size(), nullptr);
  }

  // Replicas, in global lan order: one per region with an attached node
  // (the owner is always among them). Same name and LanConfig as the
  // oracle's segment -- a replica's loss rng matches the oracle's only
  // while the segment is uncut (replicas split the receiver set, so cut
  // segments under loss diverge from the oracle; the determinism tests
  // keep loss off cut LANs).
  for (std::size_t l = 0; l < shape.lans.size(); ++l) {
    const netsim::LanConfig cfg = shape.lans[l]->config();
    for (const int r : plan.lan_regions[l]) {
      auto& region = *built.regions[static_cast<std::size_t>(r)];
      // Replicas are the region arena's FIRST creations, so every NIC that
      // later attaches (bridge ports, stations) is finalized before them.
      region.replicas[l] = &region.net.add_segment(region.arena, built.lan_names[l], cfg);
    }
  }

  const auto next_mac = [&built] {
    const std::uint32_t id = built.next_mac_id++;
    return ether::MacAddress::local(id >> 16, id & 0xFFFF);
  };

  // Bridges, in global node order, MACs from the global counter: the
  // ordinal every NIC draws is identical to the single-Network build's.
  for (std::size_t i = 0; i < shape.node_ports.size(); ++i) {
    const int r = plan.node_region[i];
    auto& region = *built.regions[static_cast<std::size_t>(r)];
    BridgeNodeConfig cfg = node_config;
    cfg.name = shape.node_names[i];
    cfg.arena = &region.arena;  // MAC tables grow on this region's thread
    if (options.netloader) cfg.loader_ip = topology_loader_ip(i);
    auto node = std::make_unique<BridgeNode>(region.net.scheduler(), std::move(cfg));
    int port = 0;
    for (const int l : built.node_lans[i]) {
      node->add_port(region.net.add_nic(
          region.arena, shape.node_names[i] + ".eth" + std::to_string(port++),
          *region.replicas[static_cast<std::size_t>(l)], next_mac()));
    }
    if (options.dumb) node->load_dumb();
    if (options.learning) node->load_learning();
    if (options.stp) node->load_ieee();
    if (options.netloader) node->load_netloader();
    built.bridges.push_back(node.get());
    region.bridges.push_back(std::move(node));
  }

  // Hosts, in global ordinal order, each in its LAN's owning region.
  built.hosts.reserve(built.host_attach.size());
  for (std::size_t ordinal = 0; ordinal < built.host_attach.size(); ++ordinal) {
    const netsim::Topology::HostAttach& h = built.host_attach[ordinal];
    const std::size_t l = static_cast<std::size_t>(h.lan);
    ShardedTopology::Region& region = built.owner_region(l);
    stack::HostConfig cfg;
    cfg.ip = topology_host_ip(ordinal);
    if (options.host_cost_model) cfg.tx_cost = netsim::CostModel::linux_host();
    // NIC first, stack second, per station: arena teardown then runs the
    // stack's destructor before its NIC's (same as build_topology).
    netsim::Nic& nic =
        region.net.add_nic(region.arena, h.name, *region.replicas[l], next_mac());
    stack::HostStack* host =
        region.arena.create<stack::HostStack>(region.net.scheduler(), nic, cfg);
    host->nic().set_tx_queue_limit(options.host_tx_queue_limit);
    built.hosts.push_back(host);
  }

  // Mailboxes: for each cut LAN, one SPSC channel per ordered (producer,
  // consumer) region pair. Producer side: the replica's relay hook fans
  // each local transmission into every outgoing channel with the
  // producer-computed delivery time. Consumer side: channels register in
  // (lan, producer) order, which IS the deterministic drain order.
  for (std::size_t l = 0; l < shape.lans.size(); ++l) {
    if (!plan.cut(l)) continue;
    const netsim::Duration prop = shape.lans[l]->config().propagation;
    for (const int p : plan.lan_regions[l]) {
      std::vector<netsim::ShardChannel*> outs;
      for (const int c : plan.lan_regions[l]) {
        if (c == p) continue;
        auto channel = std::make_unique<netsim::ShardChannel>(
            *built.regions[static_cast<std::size_t>(c)]->replicas[l]);
        outs.push_back(channel.get());
        built.regions[static_cast<std::size_t>(c)]->sync.add_inbound(*channel);
        built.channels.push_back(std::move(channel));
      }
      built.regions[static_cast<std::size_t>(p)]->replicas[l]->set_relay(
          [outs, prop](netsim::TimePoint now, const netsim::Nic* /*sender*/,
                       util::ByteView wire) {
            const netsim::TimePoint deliver_at = now + prop;
            for (netsim::ShardChannel* out : outs) out->push(deliver_at, wire);
          });
    }
  }
  return built;
}

}  // namespace ab::bridge
