// Topology assembly: the bridge/stack layers' side of the TopologyBuilder
// split. netsim plans shapes as indices without knowing what a bridge is;
// this header turns a plan position into a running BridgeNode (ports
// attached, switchlets loaded) and a plan LAN into its planned HostStacks,
// each built when that host first acts (PlannedHosts).
//
// assemble_bridge and assemble_hosts are the one recipe for a node and a
// LAN's stations; build_sharded_topology (sharded_topology.h) is the one
// builder that calls them, at one region or split across several. The
// hand-wired two-LAN and ring helpers the tests, examples, and benches
// used to copy around are one-liners over it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/bridge/bridge_node.h"
#include "src/netsim/network.h"
#include "src/stack/host_stack.h"

namespace ab::bridge {

/// What to stand up at each node/host position.
struct TopologyBuildOptions {
  bool dumb = true;      ///< switchlet 1: flooding repeater (port owner)
  bool learning = true;  ///< switchlet 2: self-learning
  bool stp = true;       ///< switchlet 3: IEEE 802.1D spanning tree
  /// Give every bridge a network loader (TFTP server at topology_loader_ip
  /// of its index), so deployment workloads can push switchlets to it.
  bool netloader = false;
  std::size_t host_tx_queue_limit = 1 << 20;
};

// ---------------------------------------------------------------------------
// Address plan (netsim's, see network.h) as stack addresses.

/// IP of the `ordinal`-th host attachment point (10.0.0.1 upward; ~16M
/// stations before colliding with the loader slice). Throws beyond that.
[[nodiscard]] stack::Ipv4Addr topology_host_ip(std::size_t ordinal);

/// IP of bridge `ordinal`'s network loader (the 10.254.0.0/16 slice).
[[nodiscard]] stack::Ipv4Addr topology_loader_ip(std::size_t ordinal);

/// IP of the `ordinal`-th workload-owned admin/probe station (10.255.0.0/16).
[[nodiscard]] stack::Ipv4Addr topology_admin_ip(std::size_t ordinal);

// ---------------------------------------------------------------------------
// Assembly: what build_sharded_topology does at each node and LAN.

/// One region's share of an assembly: its Network (clock + NIC factory),
/// the arena that owns its NICs and stacks, its live segment for each plan
/// index (nullptr where the region has none), and the cell's global MAC
/// counter, which every NIC of every region draws from.
struct AssemblySite {
  netsim::Network& net;
  netsim::Arena& arena;
  std::span<netsim::LanSegment* const> lans;
  std::uint32_t& mac_ids;

  /// Draws the next `count` MAC ids (see netsim::mac_of_id) this site
  /// hands out and returns the first.
  [[nodiscard]] std::uint32_t draw_mac_ids(std::uint32_t count = 1) const {
    const std::uint32_t first = mac_ids;
    mac_ids += count;
    return first;
  }
};

/// Assembles node position `i` of `shape`: the plan's name, a loader IP
/// when options.netloader, one arena port NIC per planned LAN in port
/// order, then the switchlets `options` selects.
[[nodiscard]] std::unique_ptr<BridgeNode> assemble_bridge(
    const AssemblySite& site, const netsim::Topology& shape, std::size_t i,
    BridgeNodeConfig config, const TopologyBuildOptions& options);

class PlannedHosts;

/// Plans LAN `lan`'s hosts of `hosts`' plan in `site` as one block (see
/// netsim::LanSegment::plan_block): their attach positions, their MAC ids,
/// drawn at once, and their addresses, topology_host_ip of each ordinal,
/// are reserved; nothing is built (see PlannedHosts). LANs are planned in
/// order, back to back, so host k's MAC id is host 0's plus k.
void assemble_hosts(const AssemblySite& site, PlannedHosts& hosts, std::size_t lan);

/// The hosts of a built topology. Each LAN's hosts are planned as one block
/// at build time (assemble_hosts), and each host is built -- its NIC, then
/// its HostStack, in the arena of the site its LAN was planned in -- when
/// its LAN first hands it a frame or when host() first asks for it.
/// Building a host schedules nothing and draws no random value, and gives
/// it the name, MAC, address and queue limit an eager build gave, so when
/// a host is built never shows in a run. Only built hosts are recorded, per
/// LAN, and a LAN's record is written only by the region that owns the
/// LAN. Pinned: its LANs' station factories point at it.
class PlannedHosts {
 public:
  PlannedHosts(const netsim::Topology& shape, std::size_t tx_queue_limit);
  PlannedHosts(const PlannedHosts&) = delete;
  PlannedHosts& operator=(const PlannedHosts&) = delete;

  /// Host at plan ordinal `i`, built now if it has not been. Throws
  /// std::out_of_range for i >= size().
  [[nodiscard]] stack::HostStack& host(std::size_t i);
  [[nodiscard]] std::size_t size() const { return shape_.host_count(); }
  /// Hosts built so far.
  [[nodiscard]] std::size_t built() const;

 private:
  friend void assemble_hosts(const AssemblySite& site, PlannedHosts& hosts,
                             std::size_t lan);

  /// One built host: its index on its LAN and its stack.
  struct Built {
    std::uint32_t index = 0;
    stack::HostStack* host = nullptr;
  };
  /// One plan LAN: the site its hosts are built in, and the hosts built so
  /// far, ascending by index.
  struct Lan {
    netsim::Network* net = nullptr;
    netsim::Arena* arena = nullptr;
    netsim::LanSegment* segment = nullptr;
    std::vector<Built> built;
  };

  /// The station factory every LAN with planned hosts calls: builds host
  /// `ordinal` and returns its NIC, unattached, for the LAN to seat.
  static netsim::Nic& build(void* self, std::uint32_t ordinal);
  /// Where host `index` of `lan` is or would be recorded.
  [[nodiscard]] static std::vector<Built>::iterator slot(Lan& lan, std::uint32_t index);

  const netsim::Topology& shape_;
  std::size_t tx_queue_limit_;
  std::vector<Lan> lans_;           ///< per plan LAN
  std::uint32_t first_mac_id_ = 0;  ///< host 0's MAC id
};

// ---------------------------------------------------------------------------
// Aggregate views over a bridge set (a built cell's global bridge list).

/// Ports across all bridges whose data-plane gate is `gate`.
[[nodiscard]] int count_gates(std::span<BridgeNode* const> bridges, PortGate gate);
/// The IEEE STP engines, in bridge order (empty when stp was off).
[[nodiscard]] std::vector<StpEngine*> stp_engines(std::span<BridgeNode* const> bridges);
/// True once the spanning tree has settled: exactly one bridge believes it
/// is root, every bridge agrees who that is, and no port is still in a
/// transitional (Listening/Learning) state.
[[nodiscard]] bool stp_converged(std::span<BridgeNode* const> bridges);
/// MAC-table entries across all learning switchlets.
[[nodiscard]] std::size_t mac_entries(std::span<BridgeNode* const> bridges);

// ---------------------------------------------------------------------------
// Region partitioning for the sharded parallel core. A REGION is a
// contiguous block of node positions plus every LAN owned by one of its
// nodes; a LAN whose attached nodes span several regions is a CUT segment
// (it gets one replica per region at build time, bridged by the relay
// mailboxes). Ownership rule: a LAN belongs to the region of the
// lowest-numbered node attached to it, and every planned host on that LAN
// lives in the owning region.

struct RegionPlan {
  int regions = 1;
  /// Region of each node position (contiguous blocks, non-decreasing).
  std::vector<int> node_region;
  /// Owning region of each LAN (global lan index order).
  std::vector<int> lan_owner;
  /// Per LAN: the sorted set of regions with at least one attached node.
  /// Size 1 for an internal LAN, >= 2 for a cut segment.
  std::vector<std::vector<int>> lan_regions;
  /// Conservative lookahead: the minimum propagation delay over every cut
  /// segment (zero when nothing is cut). Strictly positive whenever
  /// cut_lans > 0 -- partition_regions rejects a zero-propagation cut.
  netsim::Duration lookahead{};
  /// Number of cut segments.
  int cut_lans = 0;

  [[nodiscard]] bool cut(std::size_t lan) const { return lan_regions[lan].size() > 1; }
};

/// Partitions `shape` into `regions` contiguous node blocks (clamped to
/// [1, nodes]) and identifies the cross-region (cut) segments. Throws
/// std::invalid_argument if a cut segment has non-positive propagation
/// delay -- the conservative window contract needs lookahead >= 1ns.
[[nodiscard]] RegionPlan partition_regions(const netsim::Topology& shape, int regions);

}  // namespace ab::bridge
