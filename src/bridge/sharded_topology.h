// build_sharded_topology: turn a netsim::TopologySpec wiring plan into a
// running extended LAN, split across per-region worlds for the parallel
// runner -- one netsim::Network (scheduler + segments + NICs) per region,
// bridges and stations living in the region that owns them, cut segments
// replicated per region and stitched together with relay mailboxes. One
// region is the sequential case: every test, example and bench that wants
// one world on one scheduler builds `regions = 1` and drives region 0's
// scheduler.
//
// Every region count yields the same cell: the determinism tests compare
// multi-region cells against the 1-region build, and a test pins the
// 1-region build's NIC identity and run with recorded values. So every
// region reads the same index plan (netsim::TopologyBuilder::build),
// assembles every bridge and plans every LAN's hosts through the same
// assemble_bridge / assemble_hosts, assigns MAC addresses from a GLOBAL
// counter in one creation order (bridges in node order, then hosts in
// ordinal order, then callers' add_station_nic NICs), and counts each
// frame's lan stats at exactly one replica (the one its sender transmits
// on). A host is built when it first acts (PlannedHosts), on its LAN's
// owning region: by that region's worker when the LAN hands it a frame.
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
/// (bridges, hosts, lan stats) are indexed by the plan, whatever the region
/// count. Pinned (not copyable or movable): its LANs build hosts through it.
struct ShardedTopology {
  /// The plan plus its live segments: lans[l] is LAN l's owning-region
  /// replica, where its hosts and add_station_nic(_, l) NICs attach. A cut
  /// LAN's owning replica counts only the frames its own NICs send; totals
  /// come from lan_stats(l).
  struct Shape : netsim::Topology {
    std::vector<netsim::LanSegment*> lans;
  };

  /// One region's world. Non-movable (Network pins scheduler and segment
  /// addresses), so regions live behind unique_ptr.
  struct Region {
    netsim::Network net;
    netsim::Shard sync{net.scheduler()};
    /// Owns EVERY per-object simulation state the region holds: its LAN
    /// replicas, its bridges' port NICs, and its built stations' NICs +
    /// HostStacks -- in creation order (segments, then bridge ports, then
    /// stations and workload NICs as they are made), so the reverse
    /// finalizer walk destroys NICs before the segments they detach from.
    /// Declared before `bridges` so the BridgeNode shells (which reference
    /// port NICs through their planes) are destroyed first. The bridges'
    /// MAC tables are not arena state: they grow on the region's worker
    /// thread through the heap.
    netsim::Arena arena;
    /// Per GLOBAL lan index: this region's replica of the segment
    /// (arena-owned), or nullptr when the region has no presence there.
    std::vector<netsim::LanSegment*> replicas;
    std::vector<std::unique_ptr<BridgeNode>> bridges;  ///< local, node order
  };

  /// What build_sharded_topology builds; see there.
  ShardedTopology(const netsim::TopologySpec& spec, int regions,
                  BridgeNodeConfig node_config, const TopologyBuildOptions& options);
  ShardedTopology(const ShardedTopology&) = delete;
  ShardedTopology& operator=(const ShardedTopology&) = delete;

  /// The index plan every region was built from, with each LAN's owning
  /// replica.
  Shape shape;
  RegionPlan plan;
  std::vector<std::unique_ptr<Region>> regions;
  /// Cross-shard conduits, created in (cut lan, producer region, consumer
  /// region) order. Owned here, registered with the consumers' Shards.
  std::vector<std::unique_ptr<netsim::ShardChannel>> channels;

  // Global views, in plan order.
  std::vector<BridgeNode*> bridges;  ///< node position order
  /// The next MAC id to hand out (global counter, from 1 like Network's).
  /// Every NIC of every region draws from it, so a cell's addresses do not
  /// depend on its region count.
  std::uint32_t next_mac_id = 1;

  /// Host at global ordinal `i` (the plan's order), built now on its
  /// LAN's owning region if it has not been.
  [[nodiscard]] stack::HostStack& host(std::size_t i) { return hosts_.host(i); }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  /// Hosts built so far.
  [[nodiscard]] std::size_t hosts_built() const { return hosts_.built(); }

  [[nodiscard]] std::size_t lan_count() const { return shape.segments.size(); }
  // The four per-LAN calls below throw std::out_of_range for
  // l >= lan_count().
  /// The region that owns lan `l`: its hosts and its station NICs live
  /// there, on that region's replica and clock.
  [[nodiscard]] Region& owner_region(std::size_t l);
  /// Stats summed over every replica of lan `l`. Each carried frame is
  /// counted at exactly one replica (its sender's), so the sum does not
  /// depend on the region count.
  [[nodiscard]] netsim::LanStats lan_stats(std::size_t l) const;
  /// Attached NICs and planned hosts summed over replicas (tombstones
  /// excluded).
  [[nodiscard]] std::size_t lan_attached(std::size_t l) const;
  /// Creates a caller's station NIC (a probe, a hand-wired host, a
  /// workload's generator) on lan `l`'s owning replica. It is arena-owned,
  /// like every NIC on the region's replicas, so teardown detaches it while
  /// its segment is alive, and its MAC continues the global counter.
  netsim::Nic& add_station_nic(const std::string& name, std::size_t l);

  /// The per-region Shards, region order -- what ParallelRunner drives.
  [[nodiscard]] std::vector<netsim::Shard*> shard_handles();

  // Aggregates over the global bridge list / the per-region schedulers.
  [[nodiscard]] int count_gates(PortGate gate) const;
  [[nodiscard]] bool stp_converged() const;
  [[nodiscard]] std::size_t mac_entries() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t heap_inserts() const;
  [[nodiscard]] std::uint64_t scheduled_entries() const;

 private:
  PlannedHosts hosts_;
};

/// Builds `spec` as `regions` per-region worlds (clamped to [1, nodes]);
/// see the parity notes above. `node_config.name` is overridden per node
/// with the plan's names; hosts get topology_host_ip of their plan ordinal
/// (lan-major order), and are planned, not built (see
/// ShardedTopology::host).
[[nodiscard]] ShardedTopology build_sharded_topology(
    const netsim::TopologySpec& spec, int regions,
    BridgeNodeConfig node_config = {}, TopologyBuildOptions options = {});

}  // namespace ab::bridge
