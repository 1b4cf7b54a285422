// build_sharded_topology: the same assembled extended LAN as
// build_topology, but split across per-region worlds for the parallel
// runner -- one netsim::Network (scheduler + segments + NICs) per region,
// bridges and stations living in the region that owns them, cut segments
// replicated per region and stitched together with relay mailboxes.
//
// Observational parity with the single-Network build is load-bearing: a
// test pins the 1-region build against build_topology NIC by NIC and event
// by event, and the determinism tests compare multi-region cells against
// that 1-region oracle. So the sharded builder assigns MAC addresses from
// a GLOBAL counter in build_topology's creation order (bridges in node
// order, then hosts in ordinal order), reuses its names and IPs, and
// counts each frame's lan stats at exactly one replica (the one its sender
// transmits on).
//
// Ownership rules (the "sharded execution" contract, see ARCHITECTURE.md):
//   * a node belongs to the region of its position block;
//   * a LAN belongs to the region of its lowest-numbered attached node;
//   * every planned host of a LAN lives in the LAN's owning region;
//   * a cut LAN has one replica per region with an attached node -- local
//     NICs attach to the local replica, and each replica relays its local
//     transmissions to every other replica's mailbox.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bridge/topology.h"
#include "src/netsim/shard.h"

namespace ab::bridge {

/// A topology split across per-region simulation worlds. Global views
/// (bridges, hosts, lan stats) are indexed exactly like the single-Network
/// build's, whatever the region count.
struct ShardedTopology {
  /// One region's world. Non-movable (Network pins scheduler and segment
  /// addresses), so regions live behind unique_ptr.
  struct Region {
    netsim::Network net;
    netsim::Shard sync{net.scheduler()};
    /// Owns EVERY per-object simulation state the region holds: its LAN
    /// replicas, its bridges' port NICs and MAC-table slabs, and its
    /// stations' NICs + HostStacks -- in creation order (segments, then
    /// bridge ports, then stations), so the reverse finalizer walk
    /// destroys NICs before the segments they detach from. Declared
    /// before `bridges` so the BridgeNode shells (which reference port
    /// NICs through their planes) are destroyed first. Only this region's
    /// worker thread may allocate from it mid-window (MacTable growth).
    netsim::Arena arena;
    /// Per GLOBAL lan index: this region's replica of the segment
    /// (arena-owned), or nullptr when the region has no presence there.
    std::vector<netsim::LanSegment*> replicas;
    std::vector<std::unique_ptr<BridgeNode>> bridges;  ///< local, node order
  };

  netsim::TopologySpec spec;
  RegionPlan plan;
  std::vector<std::unique_ptr<Region>> regions;
  /// Cross-shard conduits, created in (cut lan, producer region, consumer
  /// region) order. Owned here, registered with the consumers' Shards.
  std::vector<std::unique_ptr<netsim::ShardChannel>> channels;

  // Global oracle-ordered views.
  std::vector<BridgeNode*> bridges;      ///< node position order
  std::vector<stack::HostStack*> hosts;  ///< host ordinal order
  std::vector<netsim::Topology::HostAttach> host_attach;  ///< global plan
  std::vector<std::string> lan_names;    ///< global lan order
  /// Per node position: the global lan index of each port, port order.
  std::vector<std::vector<int>> node_lans;
  /// MAC ids consumed so far (global counter, starts at 1 like Network's).
  /// Workload probe NICs continue from here so a sharded cell's address
  /// assignment matches the single-Network build exactly.
  std::uint32_t next_mac_id = 1;

  [[nodiscard]] std::size_t lan_count() const { return lan_names.size(); }
  /// The region that owns lan `l`: its hosts and its station NICs live
  /// there, on that region's replica and clock.
  [[nodiscard]] Region& owner_region(std::size_t l);
  /// Stats summed over every replica of lan `l`. Each carried frame is
  /// counted at exactly one replica (its sender's), so the sum equals the
  /// single-Network segment's stats.
  [[nodiscard]] netsim::LanStats lan_stats(std::size_t l) const;
  /// Attached NICs summed over replicas (tombstones excluded).
  [[nodiscard]] std::size_t lan_attached(std::size_t l) const;

  /// The per-region Shards, region order -- what ParallelRunner drives.
  [[nodiscard]] std::vector<netsim::Shard*> shard_handles();

  // Aggregates over the global bridge list / the per-region schedulers.
  [[nodiscard]] int count_gates(PortGate gate) const;
  [[nodiscard]] bool stp_converged() const;
  [[nodiscard]] std::size_t mac_entries() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t heap_inserts() const;
  [[nodiscard]] std::uint64_t scheduled_entries() const;
};

/// Builds `spec` as `regions` per-region worlds (clamped to [1, nodes]).
/// Same node/host assembly as build_topology; see the parity notes above.
[[nodiscard]] ShardedTopology build_sharded_topology(
    const netsim::TopologySpec& spec, int regions,
    BridgeNodeConfig node_config = {}, TopologyBuildOptions options = {});

}  // namespace ab::bridge
