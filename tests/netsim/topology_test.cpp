// TopologyBuilder shape math: segment counts, index wiring plans,
// overrides, host attachment plans, and validation -- all without any
// bridge layer or Network.
#include "src/netsim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ab::netsim {
namespace {

TopologySpec spec_of(TopologyShape shape, int nodes, int hosts = 0) {
  TopologySpec spec;
  spec.shape = shape;
  spec.nodes = nodes;
  spec.hosts_per_lan = hosts;
  return spec;
}

TEST(TopologyBuilder, LineWiring) {
  const Topology t = TopologyBuilder::build(spec_of(TopologyShape::kLine, 4));
  ASSERT_EQ(t.segments.size(), 5u);
  ASSERT_EQ(t.node_lans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(t.node_lans[static_cast<std::size_t>(i)], (std::vector<int>{i, i + 1}));
  }
  EXPECT_EQ(t.node_names[0], "bridge0");
  EXPECT_EQ(t.segments[0].name, "lan0");
}

TEST(TopologyBuilder, RingWrapsAround) {
  const Topology t = TopologyBuilder::build(spec_of(TopologyShape::kRing, 5));
  ASSERT_EQ(t.segments.size(), 5u);
  EXPECT_EQ(t.node_lans[4][0], 4);
  EXPECT_EQ(t.node_lans[4][1], 0);  // the wrap that makes the loop
}

TEST(TopologyBuilder, StarSharesTheHub) {
  const Topology t = TopologyBuilder::build(spec_of(TopologyShape::kStar, 6));
  ASSERT_EQ(t.segments.size(), 7u);
  for (int i = 0; i < 6; ++i) {
    const auto& ports = t.node_lans[static_cast<std::size_t>(i)];
    EXPECT_EQ(ports[0], i + 1);  // own leaf
    EXPECT_EQ(ports[1], 0);      // the hub
  }
}

TEST(TopologyBuilder, TreeParentsAreConsistent) {
  TopologySpec spec = spec_of(TopologyShape::kTree, 7);
  spec.tree_arity = 2;
  const Topology t = TopologyBuilder::build(spec);
  ASSERT_EQ(t.segments.size(), 8u);
  // Node 0 hangs off the root LAN; its down-segment is lan1.
  EXPECT_EQ(t.node_lans[0][0], 0);
  EXPECT_EQ(t.node_lans[0][1], 1);
  // Nodes 1 and 2 are node 0's children: their up-port is node 0's
  // down-segment.
  EXPECT_EQ(t.node_lans[1][0], 1);
  EXPECT_EQ(t.node_lans[2][0], 1);
  // Nodes 3 and 4 hang off node 1's down-segment (lan2).
  EXPECT_EQ(t.node_lans[3][0], 2);
  EXPECT_EQ(t.node_lans[4][0], 2);
}

TEST(TopologyBuilder, MeshIsFullyConnectedAndLoopFreePerPair) {
  const int n = 5;
  const Topology t = TopologyBuilder::build(spec_of(TopologyShape::kMesh, n));
  ASSERT_EQ(t.segments.size(), static_cast<std::size_t>(n * (n - 1) / 2));
  // Every node has n-1 ports; every pair of nodes shares exactly one LAN.
  for (const auto& ports : t.node_lans) EXPECT_EQ(ports.size(), 4u);
  std::set<int> used;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      int shared = -1;
      for (const int pa : t.node_lans[static_cast<std::size_t>(a)]) {
        for (const int pb : t.node_lans[static_cast<std::size_t>(b)]) {
          if (pa == pb) {
            EXPECT_EQ(shared, -1) << "pair shares two segments";
            shared = pa;
          }
        }
      }
      ASSERT_NE(shared, -1) << "pair " << a << "," << b << " unconnected";
      EXPECT_TRUE(used.insert(shared).second)
          << "segment serves more than one pair";
    }
  }
}

TEST(TopologyBuilder, LanOverridesApply) {
  TopologySpec spec = spec_of(TopologyShape::kLine, 2);
  spec.lan.bit_rate = 100e6;
  LanConfig slow;
  slow.bit_rate = 10e6;
  slow.loss = 0.25;
  spec.lan_overrides[1] = slow;
  const Topology t = TopologyBuilder::build(spec);
  EXPECT_EQ(t.segments[0].config.bit_rate, 100e6);
  EXPECT_EQ(t.segments[1].config.bit_rate, 10e6);
  EXPECT_EQ(t.segments[1].config.loss, 0.25);
  EXPECT_EQ(t.segments[2].config.bit_rate, 100e6);
}

TEST(TopologyBuilder, HostPlanCoversEveryLan) {
  const Topology t =
      TopologyBuilder::build(spec_of(TopologyShape::kRing, 3, /*hosts=*/2));
  ASSERT_EQ(t.host_count(), 6u);
  EXPECT_EQ(t.host(0).lan, 0);
  EXPECT_EQ(t.host(0).index, 0);
  EXPECT_EQ(t.host(0).name(), "host0_0");
  EXPECT_EQ(t.host(5).lan, 2);
  EXPECT_EQ(t.host(5).index, 1);
}

// Topology::host(k) is arithmetic on the ordinal; it must enumerate each
// segment's hosts in turn (lan-major), for every shape.
TEST(TopologyBuilder, HostOrdinalsAreLanMajorForEveryShape) {
  std::vector<TopologySpec> specs = {
      spec_of(TopologyShape::kLine, 4, 3), spec_of(TopologyShape::kRing, 5, 2),
      spec_of(TopologyShape::kStar, 6, 4), spec_of(TopologyShape::kTree, 7, 1),
      spec_of(TopologyShape::kMesh, 4, 3), spec_of(TopologyShape::kRandomKRegular, 8, 2),
      spec_of(TopologyShape::kScaleFree, 9, 5), spec_of(TopologyShape::kRing, 3, 0)};
  for (const TopologySpec& spec : specs) {
    const Topology t = TopologyBuilder::build(spec);
    std::size_t k = 0;
    for (int l = 0; l < static_cast<int>(t.segments.size()); ++l) {
      const Topology::HostRange range = t.lan_hosts(static_cast<std::size_t>(l));
      EXPECT_EQ(range.first, k) << spec.label() << " lan " << l;
      EXPECT_EQ(range.count, static_cast<std::size_t>(spec.hosts_per_lan));
      for (int h = 0; h < spec.hosts_per_lan; ++h, ++k) {
        const Topology::HostAttach at = t.host(k);
        EXPECT_EQ(at.lan, l) << spec.label() << " host " << k;
        EXPECT_EQ(at.index, h) << spec.label() << " host " << k;
      }
    }
    EXPECT_EQ(t.host_count(), k) << spec.label();
    EXPECT_THROW((void)t.host(k), std::out_of_range) << spec.label();
  }
}

// topology_host_ordinal inverts topology_host_ipv4 across the host slice,
// and maps every address outside it to no host.
TEST(AddressPlan, HostOrdinalInvertsHostAddress) {
  constexpr std::size_t kLast = 254u * 256u * 254u - 1;  // 10.253.255.254
  for (const std::size_t ordinal :
       {std::size_t{0}, std::size_t{253}, std::size_t{254}, std::size_t{65023},
        std::size_t{65024}, kLast}) {
    const std::uint32_t ip = topology_host_ipv4(ordinal);
    EXPECT_EQ(topology_host_ordinal(ip), ordinal) << ordinal;
  }
  EXPECT_EQ(topology_host_ipv4(0), 0x0A000001u);       // 10.0.0.1
  EXPECT_EQ(topology_host_ipv4(253), 0x0A0000FEu);     // 10.0.0.254
  EXPECT_EQ(topology_host_ipv4(254), 0x0A000101u);     // 10.0.1.1
  EXPECT_EQ(topology_host_ipv4(65023), 0x0A00FFFEu);   // 10.0.255.254
  EXPECT_EQ(topology_host_ipv4(65024), 0x0A010001u);   // 10.1.0.1
  EXPECT_EQ(topology_host_ipv4(kLast), 0x0AFDFFFEu);   // 10.253.255.254
  EXPECT_THROW((void)topology_host_ipv4(kLast + 1), std::invalid_argument);

  EXPECT_EQ(topology_host_ordinal(0x0A000100u), std::nullopt);  // 10.0.1.0
  EXPECT_EQ(topology_host_ordinal(0x0A0001FFu), std::nullopt);  // 10.0.1.255
  EXPECT_EQ(topology_host_ordinal(topology_loader_ipv4(0)), std::nullopt);
  EXPECT_EQ(topology_host_ordinal(topology_loader_ipv4(1000)), std::nullopt);
  EXPECT_EQ(topology_host_ordinal(topology_admin_ipv4(0)), std::nullopt);
  EXPECT_EQ(topology_host_ordinal(topology_admin_ipv4(1000)), std::nullopt);
  EXPECT_EQ(topology_host_ordinal(0x0B000001u), std::nullopt);  // 11.0.0.1
  EXPECT_EQ(topology_host_ordinal(0xC0A80001u), std::nullopt);  // 192.168.0.1
  EXPECT_EQ(topology_host_ordinal(0), std::nullopt);
}

TEST(TopologyBuilder, LabelNamesShapeAndSize) {
  EXPECT_EQ(spec_of(TopologyShape::kRing, 32, 4).label(), "ring-32x4");
  EXPECT_EQ(spec_of(TopologyShape::kMesh, 6).label(), "mesh-6x0");
  // Random shapes carry their generation parameters: cells differing only
  // in seed or degree must stay distinguishable in bench JSON.
  TopologySpec kreg = spec_of(TopologyShape::kRandomKRegular, 32, 1);
  kreg.degree = 4;
  kreg.seed = 7;
  EXPECT_EQ(kreg.label(), "kregular-32x1-d4-s7");
  TopologySpec sf = spec_of(TopologyShape::kScaleFree, 16, 2);
  sf.attach = 3;
  sf.seed = 9;
  EXPECT_EQ(sf.label(), "scalefree-16x2-a3-s9");
}

TEST(TopologyBuilder, RejectsMalformedSpecs) {
  const auto build = [](const TopologySpec& spec) { (void)TopologyBuilder::build(spec); };
  EXPECT_THROW(build(spec_of(TopologyShape::kLine, 0)), std::invalid_argument);
  EXPECT_THROW(build(spec_of(TopologyShape::kMesh, 1)), std::invalid_argument);
  EXPECT_THROW(build(spec_of(TopologyShape::kRing, 3, -1)), std::invalid_argument);
  TopologySpec bad_tree = spec_of(TopologyShape::kTree, 3);
  bad_tree.tree_arity = 0;
  EXPECT_THROW(build(bad_tree), std::invalid_argument);
}

TEST(TopologyBuilder, SegmentAndPortCountsMatchBuild) {
  for (const TopologyShape shape :
       {TopologyShape::kLine, TopologyShape::kRing, TopologyShape::kStar,
        TopologyShape::kTree, TopologyShape::kMesh, TopologyShape::kRandomKRegular,
        TopologyShape::kScaleFree}) {
    TopologySpec spec = spec_of(shape, 6);
    spec.degree = 2;
    spec.attach = 2;
    const Topology t = TopologyBuilder::build(spec);
    EXPECT_EQ(t.segments.size(),
              static_cast<std::size_t>(TopologyBuilder::segment_count(spec)));
    // Ports per node: two for the chain-like shapes, n-1 in a mesh, and a
    // random shape's node degree in its edge list.
    std::vector<int> degree(static_cast<std::size_t>(spec.nodes), 2);
    if (shape == TopologyShape::kMesh) degree.assign(degree.size(), spec.nodes - 1);
    if (shape == TopologyShape::kRandomKRegular || shape == TopologyShape::kScaleFree) {
      degree.assign(degree.size(), 0);
      for (const auto& [a, b] : TopologyBuilder::random_edges(spec)) {
        ++degree[static_cast<std::size_t>(a)];
        ++degree[static_cast<std::size_t>(b)];
      }
    }
    for (std::size_t i = 0; i < degree.size(); ++i) {
      EXPECT_EQ(t.node_lans[i].size(), static_cast<std::size_t>(degree[i]))
          << to_string(shape) << " node " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Random shapes: seeded, connectivity-checked graph generation.

namespace {

/// True if the edge list spans all `n` nodes in one component.
bool edges_connected(int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> stack{0};
  seen[0] = 1;
  while (!stack.empty()) {
    const int at = stack.back();
    stack.pop_back();
    for (const auto& [a, b] : edges) {
      const int peer = a == at ? b : (b == at ? a : -1);
      if (peer >= 0 && !seen[static_cast<std::size_t>(peer)]) {
        seen[static_cast<std::size_t>(peer)] = 1;
        stack.push_back(peer);
      }
    }
  }
  for (const int s : seen) {
    if (!s) return false;
  }
  return true;
}

}  // namespace

TEST(TopologyBuilder, KRegularIsRegularSimpleConnectedAndSeedStable) {
  TopologySpec spec = spec_of(TopologyShape::kRandomKRegular, 16);
  spec.degree = 4;
  for (const std::uint64_t seed : {1ull, 2ull, 99ull}) {
    spec.seed = seed;
    const auto edges = TopologyBuilder::random_edges(spec);
    ASSERT_EQ(edges.size(), 32u);  // 16*4/2
    std::vector<int> degree(16, 0);
    std::set<std::pair<int, int>> unique_edges;
    for (const auto& [a, b] : edges) {
      EXPECT_NE(a, b) << "self loop";
      EXPECT_TRUE(unique_edges.insert({a, b}).second) << "parallel edge";
      ++degree[static_cast<std::size_t>(a)];
      ++degree[static_cast<std::size_t>(b)];
    }
    for (const int d : degree) EXPECT_EQ(d, 4);
    EXPECT_TRUE(edges_connected(16, edges));
    // Determinism: the same spec regenerates the same graph.
    EXPECT_EQ(edges, TopologyBuilder::random_edges(spec));
  }
  // Different seeds explore different graphs (overwhelmingly likely).
  spec.seed = 1;
  const auto a = TopologyBuilder::random_edges(spec);
  spec.seed = 2;
  EXPECT_NE(a, TopologyBuilder::random_edges(spec));
}

TEST(TopologyBuilder, ScaleFreeIsConnectedSeedStableAndSkewed) {
  TopologySpec spec = spec_of(TopologyShape::kScaleFree, 40);
  spec.attach = 2;
  spec.seed = 5;
  const auto edges = TopologyBuilder::random_edges(spec);
  ASSERT_EQ(edges.size(),
            static_cast<std::size_t>(TopologyBuilder::segment_count(spec)));
  EXPECT_TRUE(edges_connected(40, edges));
  EXPECT_EQ(edges, TopologyBuilder::random_edges(spec));
  // Preferential attachment concentrates degree: some hub must beat the
  // minimum degree (attach) by a wide margin.
  std::vector<int> degree(40, 0);
  for (const auto& [a, b] : edges) {
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
  }
  EXPECT_GE(*std::max_element(degree.begin(), degree.end()), 3 * spec.attach);
  for (const int d : degree) EXPECT_GE(d, spec.attach);
}

TEST(TopologyBuilder, RandomShapeValidation) {
  const auto build = [](const TopologySpec& spec) { (void)TopologyBuilder::build(spec); };
  TopologySpec odd = spec_of(TopologyShape::kRandomKRegular, 5);
  odd.degree = 3;  // 5*3 odd: no such graph
  EXPECT_THROW(build(odd), std::invalid_argument);
  TopologySpec too_dense = spec_of(TopologyShape::kRandomKRegular, 4);
  too_dense.degree = 4;
  EXPECT_THROW(build(too_dense), std::invalid_argument);
  TopologySpec matching = spec_of(TopologyShape::kRandomKRegular, 6);
  matching.degree = 1;  // a perfect matching can never be connected
  EXPECT_THROW(build(matching), std::invalid_argument);
  TopologySpec tiny_sf = spec_of(TopologyShape::kScaleFree, 2);
  tiny_sf.attach = 2;
  EXPECT_THROW(build(tiny_sf), std::invalid_argument);
  EXPECT_THROW(TopologyBuilder::random_edges(spec_of(TopologyShape::kRing, 3)),
               std::invalid_argument);
}

TEST(TopologyBuilder, RandomShapeBuildMatchesEdgeList) {
  TopologySpec spec = spec_of(TopologyShape::kRandomKRegular, 8);
  spec.degree = 4;
  spec.seed = 11;
  const auto edges = TopologyBuilder::random_edges(spec);
  const Topology t = TopologyBuilder::build(spec);
  ASSERT_EQ(t.segments.size(), edges.size());
  // Segment e connects exactly the two endpoints of edge e.
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& [a, b] = edges[e];
    int touching = 0;
    for (int node = 0; node < spec.nodes; ++node) {
      const auto& ports = t.node_lans[static_cast<std::size_t>(node)];
      const bool has =
          std::find(ports.begin(), ports.end(), static_cast<int>(e)) != ports.end();
      if (has) {
        ++touching;
        EXPECT_TRUE(node == a || node == b);
      }
    }
    EXPECT_EQ(touching, 2);
  }
}

}  // namespace
}  // namespace ab::netsim
