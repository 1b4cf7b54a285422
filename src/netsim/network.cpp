#include "src/netsim/network.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace ab::netsim {

void Network::check_unique_segment_name(const std::string& name) const {
  if (segments_by_name_.contains(name)) {
    throw std::invalid_argument("duplicate segment name: " + name);
  }
}

LanSegment& Network::add_segment(const std::string& name, LanConfig config) {
  check_unique_segment_name(name);
  segments_.push_back(std::make_unique<LanSegment>(scheduler_, name, config));
  segments_by_name_.emplace(name, segments_.back().get());
  return *segments_.back();
}

LanSegment& Network::add_segment(Arena& arena, const std::string& name,
                                 LanConfig config) {
  check_unique_segment_name(name);
  LanSegment* seg = arena.create<LanSegment>(scheduler_, name, config);
  segments_by_name_.emplace(name, seg);
  return *seg;
}

Nic& Network::add_nic(std::string name, LanSegment& segment) {
  return add_nic(std::move(name), segment, mac_of_id(next_mac_id_++));
}

Nic& Network::add_nic(std::string name, LanSegment& segment, ether::MacAddress mac) {
  nics_.push_back(std::make_unique<Nic>(scheduler_, std::move(name), mac));
  Nic& nic = *nics_.back();
  nic.attach(segment);
  return nic;
}

Nic& Network::add_nic(Arena& arena, std::string name, LanSegment& segment) {
  return add_nic(arena, std::move(name), segment, mac_of_id(next_mac_id_++));
}

Nic& Network::add_nic(Arena& arena, std::string name, LanSegment& segment,
                      ether::MacAddress mac) {
  Nic* nic = arena.create<Nic>(scheduler_, std::move(name), mac);
  nic->attach(segment);
  return *nic;
}

LanSegment* Network::find_segment(const std::string& name) const {
  const auto it = segments_by_name_.find(name);
  return it != segments_by_name_.end() ? it->second : nullptr;
}

// ---------------------------------------------------------------------------
// Address plan

namespace {

constexpr std::uint32_t kLowOctets = 254;  ///< .1 through .254
constexpr std::uint32_t kHostSecondOctets = 254;
constexpr std::uint32_t kLoaderSecondOctet = 254;
constexpr std::uint32_t kAdminSecondOctet = 255;

/// Maps an ordinal into the 10.<base + span>.x.y slice, skipping low octets
/// 0 and 255.
std::uint32_t slice_ipv4(std::uint32_t second_octet_base, std::size_t ordinal,
                         std::uint32_t second_octet_span, const char* what) {
  const std::size_t rest = ordinal / kLowOctets;
  if (rest / 256 >= second_octet_span) {
    throw std::invalid_argument(std::string("topology address plan: ") + what +
                                " ordinal overflows its 10/8 slice");
  }
  const auto low = static_cast<std::uint32_t>(ordinal % kLowOctets) + 1;
  const auto third = static_cast<std::uint32_t>(rest % 256);
  const auto second = second_octet_base + static_cast<std::uint32_t>(rest / 256);
  return (10u << 24) | (second << 16) | (third << 8) | low;
}

}  // namespace

std::uint32_t topology_host_ipv4(std::size_t ordinal) {
  return slice_ipv4(0, ordinal, kHostSecondOctets, "host");
}

std::optional<std::uint32_t> topology_host_ordinal(std::uint32_t ipv4) {
  const std::uint32_t first = ipv4 >> 24;
  const std::uint32_t second = (ipv4 >> 16) & 0xFF;
  const std::uint32_t third = (ipv4 >> 8) & 0xFF;
  const std::uint32_t low = ipv4 & 0xFF;
  if (first != 10 || second >= kHostSecondOctets || low == 0 || low > kLowOctets) {
    return std::nullopt;
  }
  return (second * 256 + third) * kLowOctets + (low - 1);
}

std::uint32_t topology_loader_ipv4(std::size_t ordinal) {
  return slice_ipv4(kLoaderSecondOctet, ordinal, 1, "loader");
}

std::uint32_t topology_admin_ipv4(std::size_t ordinal) {
  return slice_ipv4(kAdminSecondOctet, ordinal, 1, "admin");
}

// ---------------------------------------------------------------------------
// TopologyBuilder

std::string_view to_string(TopologyShape shape) {
  switch (shape) {
    case TopologyShape::kLine:
      return "line";
    case TopologyShape::kRing:
      return "ring";
    case TopologyShape::kStar:
      return "star";
    case TopologyShape::kTree:
      return "tree";
    case TopologyShape::kMesh:
      return "mesh";
    case TopologyShape::kRandomKRegular:
      return "kregular";
    case TopologyShape::kScaleFree:
      return "scalefree";
  }
  return "?";
}

std::string TopologySpec::label() const {
  std::string base = util::format("%s-%dx%d", std::string(to_string(shape)).c_str(),
                                  nodes, hosts_per_lan);
  // Random shapes are only reproducible given their parameters; bake them
  // into the tag so cells differing in degree/attach/seed stay
  // distinguishable in tables and bench JSON.
  if (shape == TopologyShape::kRandomKRegular) {
    base += util::format("-d%d-s%llu", degree, static_cast<unsigned long long>(seed));
  } else if (shape == TopologyShape::kScaleFree) {
    base += util::format("-a%d-s%llu", attach, static_cast<unsigned long long>(seed));
  }
  return base;
}

namespace {

void validate(const TopologySpec& spec) {
  const auto bad = [&](const char* what) {
    throw std::invalid_argument(util::format("TopologySpec %s: %s",
                                             spec.label().c_str(), what));
  };
  if (spec.nodes < 1) bad("needs at least one node");
  if (spec.hosts_per_lan < 0) bad("negative hosts_per_lan");
  if (spec.tree_arity < 1 && spec.shape == TopologyShape::kTree) {
    bad("tree_arity must be >= 1");
  }
  // A one-node "ring" degenerates to a bridge with both ports on one LAN;
  // tests use it, so only mesh (which would have zero segments) is rejected.
  if (spec.nodes < 2 && spec.shape == TopologyShape::kMesh) {
    bad("mesh needs at least two nodes");
  }
  if (spec.shape == TopologyShape::kRandomKRegular) {
    if (spec.degree < 2) bad("kregular degree must be >= 2 (connectivity)");
    if (spec.degree >= spec.nodes) bad("kregular degree must be < nodes");
    if ((spec.nodes * spec.degree) % 2 != 0) bad("nodes * degree must be even");
  }
  if (spec.shape == TopologyShape::kScaleFree) {
    if (spec.attach < 1) bad("scalefree attach must be >= 1");
    if (spec.nodes < spec.attach + 1) bad("scalefree needs >= attach+1 nodes");
  }
}

/// Union-find connectivity check over a node-pair edge list.
bool is_connected(int nodes, const std::vector<std::pair<int, int>>& edges) {
  std::vector<int> parent(static_cast<std::size_t>(nodes));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  int components = nodes;
  for (const auto& [a, b] : edges) {
    const int ra = find(a);
    const int rb = find(b);
    if (ra != rb) {
      parent[static_cast<std::size_t>(ra)] = rb;
      --components;
    }
  }
  return components == 1;
}

/// Random simple k-regular graph: the pairing (configuration) model --
/// shuffle k stubs per node, pair consecutive stubs -- followed by
/// degree-preserving double-edge swaps to repair self-loops and parallel
/// edges (whole-draw rejection dies exponentially in k; repair does not).
/// Draws that end up disconnected are rejected and retried. Deterministic
/// for a given (n, k, seed); each retry advances to a derived seed.
std::vector<std::pair<int, int>> kregular_edges(int n, int k, std::uint64_t seed) {
  const auto canonical = [](int a, int b) {
    return std::pair<int, int>{std::min(a, b), std::max(a, b)};
  };
  for (int attempt = 0; attempt < 200; ++attempt) {
    util::Rng rng(seed + static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL);
    std::vector<int> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
    for (int node = 0; node < n; ++node) {
      for (int s = 0; s < k; ++s) stubs.push_back(node);
    }
    std::shuffle(stubs.begin(), stubs.end(), rng.engine());

    std::vector<std::pair<int, int>> edges;
    edges.reserve(stubs.size() / 2);
    std::map<std::pair<int, int>, int> count;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const auto e = canonical(stubs[i], stubs[i + 1]);
      edges.push_back(e);
      count[e] += 1;
    }
    const auto bad = [&](const std::pair<int, int>& e) {
      return e.first == e.second || count[e] > 1;
    };

    // Repair: swap a bad edge (a,b) with a random edge (c,d) into (a,c),
    // (b,d) when both replacements are new and loop-free. Each success
    // strictly reduces badness; give up on this draw only after a long
    // unlucky streak.
    bool repaired = true;
    int stalls = 0;
    for (std::size_t i = 0; i < edges.size() && repaired;) {
      if (!bad(edges[i])) {
        ++i;
        stalls = 0;
        continue;
      }
      const std::size_t j = rng.index(edges.size());
      const auto [a, b] = edges[i];
      const auto [c, d] = edges[j];
      const auto e1 = canonical(a, c);
      const auto e2 = canonical(b, d);
      if (j != i && a != c && b != d && e1 != e2 && count[e1] == 0 &&
          count[e2] == 0) {
        count[edges[i]] -= 1;
        count[edges[j]] -= 1;
        edges[i] = e1;
        edges[j] = e2;
        count[e1] += 1;
        count[e2] += 1;
        i = 0;  // a swap can only fix, never break, but recheck from the top
        stalls = 0;
      } else if (++stalls > 64 * n * k) {
        repaired = false;  // pathologically unlucky draw: start over
      }
    }
    if (repaired && is_connected(n, edges)) return edges;
  }
  throw std::runtime_error(
      util::format("kregular(%d, %d): no connected simple graph in 200 draws", n, k));
}

/// Barabasi-Albert scale-free graph: a seed clique on attach+1 nodes, then
/// each newcomer attaches `attach` distinct edges, targets drawn
/// degree-proportionally (uniform over the running endpoint list).
/// Connected by construction; deterministic for a given (n, m, seed).
std::vector<std::pair<int, int>> scale_free_edges(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  std::vector<int> endpoints;  // every edge contributes both ends
  for (int a = 0; a < m + 1; ++a) {
    for (int b = a + 1; b < m + 1; ++b) {
      edges.emplace_back(a, b);
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }
  for (int node = m + 1; node < n; ++node) {
    std::vector<int> targets;
    while (static_cast<int>(targets.size()) < m) {
      const int candidate = endpoints[rng.index(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), candidate) == targets.end()) {
        targets.push_back(candidate);
      }
    }
    for (const int t : targets) {
      edges.emplace_back(std::min(node, t), std::max(node, t));
      endpoints.push_back(node);
      endpoints.push_back(t);
    }
  }
  return edges;
}

/// Index of the segment a tree node bridges upward into: the root LAN for
/// node 0, otherwise the parent node's down-segment (node j's down-segment
/// is j+1).
int tree_up_segment(int node, int arity) {
  if (node == 0) return 0;
  return (node - 1) / arity + 1;
}

}  // namespace

std::string Topology::HostAttach::name() const {
  return "host" + std::to_string(lan) + "_" + std::to_string(index);
}

Topology::HostAttach Topology::host(std::size_t k) const {
  if (k >= host_count()) {
    throw std::out_of_range(util::format("Topology %s: host ordinal %zu of %zu",
                                         spec.label().c_str(), k, host_count()));
  }
  const auto n = static_cast<std::size_t>(spec.hosts_per_lan);
  return HostAttach{static_cast<int>(k / n), static_cast<int>(k % n)};
}

int TopologyBuilder::segment_count(const TopologySpec& spec) {
  switch (spec.shape) {
    case TopologyShape::kLine:
    case TopologyShape::kStar:
    case TopologyShape::kTree:
      return spec.nodes + 1;
    case TopologyShape::kRing:
      return spec.nodes;
    case TopologyShape::kMesh:
      return spec.nodes * (spec.nodes - 1) / 2;
    case TopologyShape::kRandomKRegular:
      return spec.nodes * spec.degree / 2;
    case TopologyShape::kScaleFree:
      // Seed clique + attach edges per newcomer; fixed by construction.
      return spec.attach * (spec.attach + 1) / 2 +
             (spec.nodes - spec.attach - 1) * spec.attach;
  }
  return 0;
}

std::vector<std::pair<int, int>> TopologyBuilder::random_edges(
    const TopologySpec& spec) {
  validate(spec);
  switch (spec.shape) {
    case TopologyShape::kRandomKRegular:
      return kregular_edges(spec.nodes, spec.degree, spec.seed);
    case TopologyShape::kScaleFree:
      return scale_free_edges(spec.nodes, spec.attach, spec.seed);
    default:
      throw std::invalid_argument("random_edges: " + spec.label() +
                                  " is not a random shape");
  }
}

Topology TopologyBuilder::build(const TopologySpec& spec) {
  validate(spec);
  Topology topo;
  topo.spec = spec;

  // The random shapes are edge lists: one point-to-point segment per edge,
  // generated (and connectivity-checked) before anything is planned.
  std::vector<std::pair<int, int>> edges;
  const bool random_shape = spec.shape == TopologyShape::kRandomKRegular ||
                            spec.shape == TopologyShape::kScaleFree;
  if (random_shape) edges = random_edges(spec);

  const int segments = segment_count(spec);
  topo.segments.reserve(static_cast<std::size_t>(segments));
  for (int i = 0; i < segments; ++i) {
    const auto it = spec.lan_overrides.find(i);
    topo.segments.push_back(Topology::Segment{
        "lan" + std::to_string(i),
        it != spec.lan_overrides.end() ? it->second : spec.lan});
  }

  topo.node_lans.resize(static_cast<std::size_t>(spec.nodes));
  topo.node_names.reserve(static_cast<std::size_t>(spec.nodes));
  for (int i = 0; i < spec.nodes; ++i) {
    topo.node_names.push_back("bridge" + std::to_string(i));
    auto& ports = topo.node_lans[static_cast<std::size_t>(i)];
    switch (spec.shape) {
      case TopologyShape::kLine:
        ports = {i, i + 1};
        break;
      case TopologyShape::kRing:
        ports = {i, (i + 1) % spec.nodes};
        break;
      case TopologyShape::kStar:
        // Leaf segment first so hosts on "node i's LAN" read naturally.
        ports = {i + 1, 0};
        break;
      case TopologyShape::kTree:
        ports = {tree_up_segment(i, spec.tree_arity), i + 1};
        break;
      case TopologyShape::kMesh: {
        // Pair (a, b), a < b, owns segment index  a*(2n-a-1)/2 + (b-a-1).
        for (int peer = 0; peer < spec.nodes; ++peer) {
          if (peer == i) continue;
          const int a = std::min(i, peer);
          const int b = std::max(i, peer);
          ports.push_back(a * (2 * spec.nodes - a - 1) / 2 + (b - a - 1));
        }
        break;
      }
      case TopologyShape::kRandomKRegular:
      case TopologyShape::kScaleFree: {
        // Edge e owns segment e; a node's ports are its incident edges in
        // edge-list order.
        for (std::size_t e = 0; e < edges.size(); ++e) {
          if (edges[e].first == i || edges[e].second == i) {
            ports.push_back(static_cast<int>(e));
          }
        }
        break;
      }
    }
  }

  return topo;
}

}  // namespace ab::netsim
