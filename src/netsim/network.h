// Network: the owning container for a simulation -- one scheduler, the LAN
// segments, and the NICs -- plus TopologyBuilder, the declarative generator
// for parametric extended-LAN shapes (line / ring / star / tree / mesh).
//
// The paper's evaluation runs on two bridged LANs and a three-bridge ring;
// the builder generalizes those to N-node shapes with M host attachment
// points per LAN so tests, benches, and scenario sweeps can dial topology
// size instead of hand-wiring segments. netsim knows nothing about bridges
// or host stacks (they live layers above), so the builder creates nothing:
// it hands back an index-only wiring plan -- each segment's name and
// LanConfig, which segment indices each node connects, and where hosts
// attach. src/bridge/sharded_topology.h creates the segments that plan
// names and assembles BridgeNodes and HostStacks on them, one Network per
// region.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/netsim/arena.h"
#include "src/netsim/lan.h"
#include "src/netsim/nic.h"
#include "src/netsim/scheduler.h"

namespace ab::netsim {

/// The MAC of the NIC addressed by `id`: Network's counter and the
/// topology builder both number NICs from 1 and address them this way.
/// Its low 32 bits are `id` itself.
[[nodiscard]] inline ether::MacAddress mac_of_id(std::uint32_t id) {
  return ether::MacAddress::local(id >> 16, id & 0xFFFF);
}

// ---------------------------------------------------------------------------
// Address plan. One flat bridged broadcast domain, no subnetting: hosts,
// bridge loaders, and workload admin stations each get a disjoint slice of
// 10/8, assigned by ordinal. Low octets 0 and 255 are skipped everywhere so
// no assigned address ever looks like a network or broadcast address.
// Addresses are IPv4 values in host byte order.

/// Address of host ordinal `ordinal` (10.0.0.1 upward; 254 * 256 * 254
/// stations, up to 10.253.255.254). Throws std::invalid_argument beyond.
[[nodiscard]] std::uint32_t topology_host_ipv4(std::size_t ordinal);
/// The inverse of topology_host_ipv4: the host ordinal whose address is
/// `ipv4`, or nullopt for every address outside the host slice.
[[nodiscard]] std::optional<std::uint32_t> topology_host_ordinal(std::uint32_t ipv4);
/// Address of bridge `ordinal`'s network loader (the 10.254.0.0/16 slice).
[[nodiscard]] std::uint32_t topology_loader_ipv4(std::size_t ordinal);
/// Address of the `ordinal`-th workload admin/probe station (10.255.0.0/16).
[[nodiscard]] std::uint32_t topology_admin_ipv4(std::size_t ordinal);

/// Owns every simulator object; destroying the Network ends the simulated
/// world. Segments and NICs are stable (pointers remain valid for the
/// Network's lifetime).
class Network {
 public:
  Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The simulation's single event queue; everything runs through it.
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  /// Current virtual time (shorthand for scheduler().now()).
  [[nodiscard]] TimePoint now() const { return scheduler_.now(); }

  /// Creates a broadcast segment.
  LanSegment& add_segment(const std::string& name, LanConfig config = {});

  /// Arena-backed variant: the segment lives in `arena` (alongside the
  /// bridge port NICs and stations of its region in a sharded cell)
  /// instead of the Network's per-object list. Names share one namespace
  /// with owned segments, and find_segment sees both. Creation-order
  /// discipline is the caller's: arena teardown destroys NICs created
  /// AFTER a segment before the segment itself, which is the order the
  /// detach-on-~Nic contract needs.
  LanSegment& add_segment(Arena& arena, const std::string& name, LanConfig config = {});

  /// Creates a NIC with an automatically assigned locally-administered MAC
  /// and attaches it to `segment`.
  Nic& add_nic(std::string name, LanSegment& segment);

  /// Creates a NIC with an explicit MAC.
  Nic& add_nic(std::string name, LanSegment& segment, ether::MacAddress mac);

  /// Arena-backed variant: the NIC lives in `arena` (contiguous with its
  /// station's other state, freed by the arena) instead of the Network's
  /// per-object list, but draws from the SAME MAC counter, so mixing
  /// arena and individually-owned NICs never collides addresses. The
  /// arena must not outlive this Network's scheduler.
  Nic& add_nic(Arena& arena, std::string name, LanSegment& segment);

  /// Arena-backed variant with an explicit MAC. The topology builder
  /// assigns MACs from its cell's GLOBAL counter (not this Network's), so
  /// a cell's addresses do not depend on how many per-region Networks it
  /// is split across.
  Nic& add_nic(Arena& arena, std::string name, LanSegment& segment,
               ether::MacAddress mac);

  /// Every segment created so far, in creation order.
  [[nodiscard]] const std::vector<std::unique_ptr<LanSegment>>& segments() const {
    return segments_;
  }
  /// Every NIC created so far, in creation order.
  [[nodiscard]] const std::vector<std::unique_ptr<Nic>>& nics() const { return nics_; }

  /// Finds a segment, owned or arena-backed, by name; nullptr if absent.
  [[nodiscard]] LanSegment* find_segment(const std::string& name) const;

 private:
  /// Throws std::invalid_argument if a segment already has `name`.
  void check_unique_segment_name(const std::string& name) const;

  Scheduler scheduler_;
  std::vector<std::unique_ptr<LanSegment>> segments_;
  /// Every segment, owned or arena-backed, by name: one hash probe per
  /// duplicate-name check and find_segment, so creating N segments is
  /// linear. Arena segments' storage belongs to the caller's arena.
  std::unordered_map<std::string, LanSegment*> segments_by_name_;
  std::vector<std::unique_ptr<Nic>> nics_;
  /// The id (see mac_of_id) the next automatically addressed NIC gets.
  std::uint32_t next_mac_id_ = 1;
};

// ---------------------------------------------------------------------------
// Parametric topology generation

/// The extended-LAN shapes the builder can generate. The first five are
/// deterministic functions of `nodes`; the last two are seeded random
/// graphs, regenerated identically for identical (spec, seed) pairs and
/// rejected-and-retried until connected.
enum class TopologyShape {
  kLine,  ///< nodes+1 segments in a chain; node i joins seg i and seg i+1
  kRing,  ///< nodes segments in a cycle; node i joins seg i and seg (i+1)%n
  kStar,  ///< hub segment 0; node i joins its leaf segment i+1 to the hub
  kTree,  ///< arity-ary tree; node i joins its parent's down-segment and its own
  kMesh,  ///< one point-to-point segment per node pair; n-1 ports per node
  kRandomKRegular,  ///< random simple `degree`-regular graph (pairing model)
  kScaleFree,  ///< Barabasi-Albert preferential attachment, `attach` edges/node
};

/// Short stable name ("ring", "kregular", "scalefree", ...) for labels/JSON.
[[nodiscard]] std::string_view to_string(TopologyShape shape);

/// Declarative description of a topology. `nodes` counts bridge positions,
/// `hosts_per_lan` host attachment points generated on every segment.
struct TopologySpec {
  TopologyShape shape = TopologyShape::kRing;
  int nodes = 3;
  int hosts_per_lan = 0;
  /// Children per node for kTree.
  int tree_arity = 2;
  /// Edges per node for kRandomKRegular (nodes * degree must be even,
  /// degree in [2, nodes-1]).
  int degree = 4;
  /// Edges each newcomer adds for kScaleFree (>= 1; the first attach+1
  /// nodes form a seed clique).
  int attach = 2;
  /// Seed for the random shapes. Same spec + same seed = same graph.
  std::uint64_t seed = 1;
  /// Default physical parameters for every segment.
  LanConfig lan;
  /// Per-segment-index overrides (loss on one link, a slow uplink, ...).
  std::map<int, LanConfig> lan_overrides;

  /// "ring-32x4" style tag used in sweep tables and bench JSON.
  [[nodiscard]] std::string label() const;
};

/// The wiring plan for one generated topology, as indices. It creates no
/// segment: `segments` says what to create, `node_lans` and the host plan
/// say what attaches to which segment index.
///
/// The host plan stores nothing per host: every segment gets
/// spec.hosts_per_lan hosts, numbered lan-major (segment 0's hosts, then
/// segment 1's, ...), so host ordinal k attaches to segment
/// k / hosts_per_lan as its (k % hosts_per_lan)-th host.
struct Topology {
  /// One planned segment: what Network::add_segment takes.
  struct Segment {
    std::string name;
    LanConfig config;
  };
  /// One planned host attachment point. Its name is derived, not stored.
  struct HostAttach {
    int lan = 0;    ///< index into `segments`
    int index = 0;  ///< host ordinal on that segment
    /// "host<lan>_<index>": the station NIC's name.
    [[nodiscard]] std::string name() const;
  };
  /// The host ordinals [first, first + count) of one segment.
  struct HostRange {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  TopologySpec spec;
  std::vector<Segment> segments;
  /// node_lans[i] lists the segment indices node i bridges, in port order.
  std::vector<std::vector<int>> node_lans;
  std::vector<std::string> node_names;

  /// Host attachment points over every segment.
  [[nodiscard]] std::size_t host_count() const {
    return segments.size() * static_cast<std::size_t>(spec.hosts_per_lan);
  }
  /// Where host ordinal `k` attaches. Throws std::out_of_range for
  /// k >= host_count().
  [[nodiscard]] HostAttach host(std::size_t k) const;
  /// The host ordinals on segment `lan`.
  [[nodiscard]] HostRange lan_hosts(std::size_t lan) const {
    const auto n = static_cast<std::size_t>(spec.hosts_per_lan);
    return {lan * n, n};
  }
};

/// Generates wiring plans for TopologySpecs. Pure netsim: the caller (or
/// bridge::build_sharded_topology) decides what segments to create and
/// what actually sits at each node position.
class TopologyBuilder {
 public:
  /// Returns the spec's plan. Throws std::invalid_argument on malformed
  /// specs (too few nodes for the shape, negative host counts,
  /// non-positive arity, infeasible degree); std::runtime_error if a
  /// random shape cannot be made connected after bounded retries.
  [[nodiscard]] static Topology build(const TopologySpec& spec);

  /// Segments the spec will plan (without planning anything). Exact for
  /// every shape, including the random ones (their edge counts are fixed
  /// by construction: nodes*degree/2 and C(attach+1,2)+(nodes-attach-1)*attach).
  [[nodiscard]] static int segment_count(const TopologySpec& spec);

  /// The node-pair edge list a random spec generates (seeded, connected,
  /// deterministic). Exposed so tests can check connectivity/determinism
  /// without planning the rest. Throws for the non-random shapes.
  [[nodiscard]] static std::vector<std::pair<int, int>> random_edges(
      const TopologySpec& spec);
};

}  // namespace ab::netsim
