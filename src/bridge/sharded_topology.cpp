#include "src/bridge/sharded_topology.h"

#include <stdexcept>
#include <utility>

#include "src/util/string_util.h"

namespace ab::bridge {

namespace {

/// Throws std::out_of_range unless `l` indexes one of `shape`'s LANs.
void check_lan(const netsim::Topology& shape, std::size_t l) {
  if (l >= shape.segments.size()) {
    throw std::out_of_range(util::format("ShardedTopology %s: lan %zu of %zu",
                                         shape.spec.label().c_str(), l,
                                         shape.segments.size()));
  }
}

}  // namespace

ShardedTopology::Region& ShardedTopology::owner_region(std::size_t l) {
  check_lan(shape, l);
  return *regions[static_cast<std::size_t>(plan.lan_owner[l])];
}

netsim::LanStats ShardedTopology::lan_stats(std::size_t l) const {
  check_lan(shape, l);
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
  check_lan(shape, l);
  std::size_t attached = 0;
  for (const auto& region : regions) {
    const netsim::LanSegment* replica = region->replicas[l];
    if (replica != nullptr) attached += replica->attached_count();
  }
  return attached;
}

netsim::Nic& ShardedTopology::add_station_nic(const std::string& name, std::size_t l) {
  Region& region = owner_region(l);
  return region.net.add_nic(region.arena, name, *region.replicas[l],
                            netsim::mac_of_id(next_mac_id++));
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

ShardedTopology::ShardedTopology(const netsim::TopologySpec& spec, int region_count,
                                 BridgeNodeConfig node_config,
                                 const TopologyBuildOptions& options)
    : shape{netsim::TopologyBuilder::build(spec), {}},
      plan(partition_regions(shape, region_count)),
      hosts_(shape, options.host_tx_queue_limit) {
  for (int r = 0; r < plan.regions; ++r) {
    regions.push_back(std::make_unique<Region>());
    regions.back()->replicas.assign(shape.segments.size(), nullptr);
  }

  // Replicas, in global lan order: one per region with an attached node
  // (the owner is always among them), each with the plan's name and
  // LanConfig. A replica's loss rng matches the 1-region segment's only
  // while the segment is uncut (replicas split the receiver set, so cut
  // segments under loss diverge from one region; the determinism tests
  // keep loss off cut LANs).
  for (std::size_t l = 0; l < shape.segments.size(); ++l) {
    for (const int r : plan.lan_regions[l]) {
      Region& region = *regions[static_cast<std::size_t>(r)];
      // Replicas are the region arena's FIRST creations, so every NIC that
      // later attaches (bridge ports, stations) is finalized before them.
      region.replicas[l] = &region.net.add_segment(region.arena, shape.segments[l].name,
                                                   shape.segments[l].config);
    }
    shape.lans.push_back(owner_region(l).replicas[l]);
  }

  // Bridges in global node order, then each LAN's hosts as one block in
  // global LAN order, each in the region that owns it. MACs come from the
  // global counter, so the id every NIC draws does not depend on the
  // region count.
  const auto site = [this](Region& region) {
    return AssemblySite{region.net, region.arena, region.replicas, next_mac_id};
  };
  for (std::size_t i = 0; i < shape.node_lans.size(); ++i) {
    Region& region = *regions[static_cast<std::size_t>(plan.node_region[i])];
    region.bridges.push_back(
        assemble_bridge(site(region), shape, i, node_config, options));
    bridges.push_back(region.bridges.back().get());
  }
  for (std::size_t l = 0; l < shape.segments.size(); ++l) {
    assemble_hosts(site(owner_region(l)), hosts_, l);
  }

  // Mailboxes: for each cut LAN, one SPSC channel per ordered (producer,
  // consumer) region pair. Producer side: the replica's relay hook fans
  // each local transmission into every outgoing channel with the
  // producer-computed delivery time. Consumer side: channels register in
  // (lan, producer) order, which IS the deterministic drain order.
  for (std::size_t l = 0; l < shape.segments.size(); ++l) {
    if (!plan.cut(l)) continue;
    const netsim::Duration prop = shape.segments[l].config.propagation;
    for (const int p : plan.lan_regions[l]) {
      std::vector<netsim::ShardChannel*> outs;
      for (const int c : plan.lan_regions[l]) {
        if (c == p) continue;
        auto channel = std::make_unique<netsim::ShardChannel>(
            *regions[static_cast<std::size_t>(c)]->replicas[l]);
        outs.push_back(channel.get());
        regions[static_cast<std::size_t>(c)]->sync.add_inbound(*channel);
        channels.push_back(std::move(channel));
      }
      regions[static_cast<std::size_t>(p)]->replicas[l]->set_relay(
          [outs, prop](netsim::TimePoint now, const netsim::Nic* /*sender*/,
                       util::ByteView wire) {
            const netsim::TimePoint deliver_at = now + prop;
            for (netsim::ShardChannel* out : outs) out->push(deliver_at, wire);
          });
    }
  }
}

ShardedTopology build_sharded_topology(const netsim::TopologySpec& spec,
                                       int region_count,
                                       BridgeNodeConfig node_config,
                                       TopologyBuildOptions options) {
  return ShardedTopology(spec, region_count, std::move(node_config), options);
}

}  // namespace ab::bridge
