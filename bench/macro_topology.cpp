// Macro-bench: whole-simulation throughput across parametric topologies,
// driven by the pluggable workload engine (apps::Workload).
//
// Three workloads run over spec grids (see docs/BENCHMARKS.md):
//   * flood+pings  -- the simulation-core capacity trajectory (PR 2's
//     workload): broadcast burst + every host pings its successor;
//   * ttcp-streams -- K concurrent ttcp pairs placed across LANs,
//     per-stream goodput/loss (the paper's fig. 10 traffic at scale);
//   * rollout      -- the paper's section 5.2 staged switchlet deployment
//     over the bridge set, mid-traffic, per-bridge load time + old/new
//     code frame split.
//
// The ttcp and rollout grids always include the acceptance cells: ring-32
// (4 hosts/LAN), kregular-32 (random 4-regular), and a star with 1000
// hosts per LAN (the widened addressing at work). The flood headline stays
// ring-32 x 4 driven to 802.1D convergence.
//
// `--smoke` runs a reduced flood grid once but keeps the ttcp/rollout
// acceptance cells (they are virtually cheap), so CI compiles-and-exercises
// every workload path on each PR; the numbers only mean something on quiet
// machines.
//
// The flood-dominated profile (always run, smoke included) pins the
// batched-delivery contract in BENCH_topology.json: a broadcast burst into
// a thousand-station hub segment must cost O(1) scheduler events per
// broadcast (one transmit event + one per-segment delivery walk), where
// the per-receiver-event scheme cost receivers + 1. The CI bench-smoke
// guard (scripts/check_bench_smoke.sh) fails the build if this regresses.
// Three transmit-path profiles pin the PR 5 burst-batching contract (all
// always run; the CI guard asserts their bounds):
//   * flood_profile gains inserts_per_broadcast: a burst of broadcasts
//     drains the probe NIC's queue as one timed run, so the transmit side
//     adds ~1/burst insert per broadcast where the self-rearming chain
//     paid 1 per frame (the per-frame model is 2.0 with delivery);
//   * egress_profile: an 8-port forwarding plane floods -- the TxBatch
//     claims every idle egress transmitter and schedules ONE timed run, so
//     a flood hop costs 1 insert where the per-port path cost 8;
//   * ttcp_write_profile: an 8 KB write fragments into 6 frames that pace
//     through the host's processing element as ONE timed run -- 1 insert
//     per write, was 6.
// A mac_lookup cell times the learning bridge's flat open-addressing MAC
// table (with its destination cache) against the unordered_map it
// replaced, on DEC-TR-592-style skewed destination traffic.
// The station-scale cell (always run, smoke included) builds star-8x125000
// -- 1,125,000 arena-backed stations -- under the aggregate workload and
// pins per-station build time, memory and receiver visits per carried
// frame in BENCH_topology.json's aggregate_profile; check_bench_smoke.sh
// enforces the bounds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/scenario.h"
#include "src/apps/ttcp.h"
#include "src/bridge/bridge_node.h"
#include "src/bridge/forwarding.h"
#include "src/bridge/learning.h"
#include "src/ether/frame.h"
#include "src/stack/host_stack.h"
#include "src/util/rng.h"

using namespace ab;

namespace {

netsim::TopologySpec spec_of(netsim::TopologyShape shape, int nodes, int hosts) {
  netsim::TopologySpec spec;
  spec.shape = shape;
  spec.nodes = nodes;
  spec.hosts_per_lan = hosts;
  return spec;
}

/// The flood-dominated star profile: a hub segment with `receivers`
/// stations takes a burst of broadcasts, and we count scheduler events per
/// broadcast. This is the paper's bread-and-butter traffic (Jain's
/// DEC-TR-592: broadcast/flood dominates bridged-LAN event counts) and the
/// cell the batched per-segment delivery is sized against.
struct FloodProfile {
  std::size_t receivers = 0;
  int broadcasts = 0;
  std::uint64_t events = 0;
  std::uint64_t inserts = 0;
  std::uint64_t frames_delivered = 0;
  double events_per_broadcast = 0.0;
  double inserts_per_broadcast = 0.0;
  /// What the same burst cost under one-event-per-receiver delivery.
  [[nodiscard]] double per_receiver_model() const {
    return static_cast<double>(receivers) + 1.0;
  }
  /// Inserts per broadcast under the per-frame transmitter chain (one
  /// serialization completion + one delivery insert per broadcast).
  [[nodiscard]] double per_frame_insert_model() const { return 2.0; }
};

FloodProfile run_flood_profile(std::size_t receivers, int broadcasts) {
  netsim::Network net;
  netsim::LanSegment& hub = net.add_segment("hub");
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < receivers; ++i) {
    netsim::Nic& nic = net.add_nic("rx" + std::to_string(i), hub);
    nic.set_rx_handler([&delivered](const ether::WireFrame&) { ++delivered; });
  }
  netsim::Nic& probe = net.add_nic("probe", hub);
  probe.set_tx_queue_limit(static_cast<std::size_t>(broadcasts) + 1);

  // The burst goes through transmit_burst: one queue admission pass, one
  // timed run for the whole backlog (the serialization completions), one
  // delivery insert per broadcast -- scheduler inserts per broadcast drop
  // to ~1 where the per-frame chain paid 2.
  std::vector<ether::WireFrame> burst;
  burst.reserve(static_cast<std::size_t>(broadcasts));
  for (int b = 0; b < broadcasts; ++b) {
    burst.emplace_back(ether::Frame::ethernet2(
        ether::MacAddress::broadcast(), probe.mac(), ether::EtherType::kExperimental,
        {static_cast<std::uint8_t>(b)}));
  }
  const std::uint64_t before = net.scheduler().executed();
  const std::uint64_t inserts_before = net.scheduler().inserts();
  probe.transmit_burst(burst);
  net.scheduler().run();

  FloodProfile p;
  p.receivers = receivers;
  p.broadcasts = broadcasts;
  p.events = net.scheduler().executed() - before;
  p.inserts = net.scheduler().inserts() - inserts_before;
  p.frames_delivered = delivered;
  p.events_per_broadcast =
      broadcasts > 0 ? static_cast<double>(p.events) / broadcasts : 0.0;
  p.inserts_per_broadcast =
      broadcasts > 0 ? static_cast<double>(p.inserts) / broadcasts : 0.0;
  return p;
}

/// The bridge egress hop: an N-port forwarding plane (idle transmitters)
/// floods a frame -- the TxBatch claims every egress port and issues ONE
/// timed run, so the hop costs 1 scheduler insert where the per-port path
/// cost N. Inserts are measured across the flood() call itself (the
/// deliveries it triggers later are the LAN layer's, profiled above).
struct EgressProfile {
  std::size_t ports = 0;
  int floods = 0;
  std::uint64_t inserts = 0;
  double inserts_per_flood = 0.0;
  [[nodiscard]] double per_port_model() const {
    return static_cast<double>(ports) - 1.0;  // all but the ingress port
  }
};

EgressProfile run_egress_profile(std::size_t ports, int floods) {
  netsim::Network net;
  active::PortTable table(net.scheduler());
  bridge::ForwardingPlane plane;
  for (std::size_t i = 0; i < ports; ++i) {
    auto& lan = net.add_segment("lan" + std::to_string(i));
    table.add_interface(net.add_nic("eth" + std::to_string(i), lan));
  }
  for (std::size_t i = 0; i < ports; ++i) {
    active::InputPort& in = table.get_iport();
    plane.add_port(in, table.bind_out(in.name()));
  }

  EgressProfile p;
  p.ports = ports;
  p.floods = floods;
  for (int f = 0; f < floods; ++f) {
    const ether::WireFrame frame(ether::Frame::ethernet2(
        ether::MacAddress::broadcast(), ether::MacAddress::local(99, 0),
        ether::EtherType::kExperimental, {static_cast<std::uint8_t>(f)}));
    const std::uint64_t before = net.scheduler().inserts();
    plane.flood(frame, 0);
    p.inserts += net.scheduler().inserts() - before;
    net.scheduler().run();  // drain so the next flood finds idle ports
  }
  p.inserts_per_flood =
      floods > 0 ? static_cast<double>(p.inserts) / floods : 0.0;
  return p;
}

/// The ttcp write hop: an 8 KB write fragments into a frame train that
/// paces through the sender's processing element as ONE timed run -- 1
/// scheduler insert per write where the per-fragment path paid one each.
/// Measured across the send_udp call itself, ARP warm (the resolved fast
/// path is the steady state fig. 10 runs in).
struct TtcpWriteProfile {
  std::size_t write_size = 0;
  std::size_t fragments = 0;
  int writes = 0;
  std::uint64_t inserts = 0;
  double inserts_per_write = 0.0;
  [[nodiscard]] double per_fragment_model() const {
    return static_cast<double>(fragments);
  }
};

TtcpWriteProfile run_ttcp_write_profile(std::size_t write_size, int writes) {
  netsim::Network net;
  netsim::LanSegment& lan = net.add_segment("lan");
  stack::HostConfig sender_cfg;
  sender_cfg.ip = *stack::Ipv4Addr::parse("10.0.0.1");
  sender_cfg.tx_cost = netsim::CostModel::linux_host();
  stack::HostStack sender(net.scheduler(), net.add_nic("snd", lan), sender_cfg);
  stack::HostConfig sink_cfg;
  sink_cfg.ip = *stack::Ipv4Addr::parse("10.0.0.2");
  stack::HostStack sink(net.scheduler(), net.add_nic("rcv", lan), sink_cfg);
  sink.bind_udp(5001, [](stack::Ipv4Addr, const stack::UdpDatagram&) {});

  // Warm ARP so the profile measures the resolved steady state.
  sender.send_udp(sink.ip(), 5000, 5001, util::ByteBuffer(8));
  net.scheduler().run();

  TtcpWriteProfile p;
  p.write_size = write_size;
  p.writes = writes;
  const std::size_t mtu_payload = (sender_cfg.mtu - stack::Ipv4Header::kSize) &
                                  ~std::size_t{7};
  const std::size_t udp_bytes = write_size + 8;  // UDP header
  p.fragments = (udp_bytes + mtu_payload - 1) / mtu_payload;
  for (int w = 0; w < writes; ++w) {
    const std::uint64_t before = net.scheduler().inserts();
    sender.send_udp(sink.ip(), 5000, 5001, util::ByteBuffer(write_size));
    p.inserts += net.scheduler().inserts() - before;
    net.scheduler().run();
  }
  p.inserts_per_write = writes > 0 ? static_cast<double>(p.inserts) / writes : 0.0;
  return p;
}

/// The learning bridge's hottest line, replayed as the datapath runs it:
/// per frame, learn the (uniform) source then look up the destination --
/// skewed traffic (DEC-TR-592: a small hot working set plus a uniform
/// tail). Times the flat open-addressing MacTable (last-destination cache
/// included; learn never evicts it) against the std::unordered_map it
/// replaced, identical access sequence on both sides.
struct MacLookupProfile {
  std::size_t entries = 0;
  std::size_t lookups = 0;
  double flat_ns_per_lookup = 0.0;
  double map_ns_per_lookup = 0.0;
  double speedup = 0.0;
  /// Flat table and reference map agreed on every hit (the side-by-side
  /// replay is a correctness check as much as a timing one).
  bool hits_agree = true;
};

MacLookupProfile run_mac_lookup_profile(std::size_t entries, std::size_t lookups) {
  const netsim::TimePoint now{};
  std::vector<ether::MacAddress> macs;
  macs.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    macs.push_back(ether::MacAddress::local(static_cast<std::uint32_t>(i / 16),
                                            static_cast<std::uint16_t>(i % 16)));
  }
  // Per-frame (source, destination) sequence: sources uniform (every
  // station talks), destinations 90% from 16 hot stations with repeat
  // runs (frame bursts ride the destination cache), 10% uniform.
  util::Rng rng(1997);
  std::vector<std::uint32_t> srcs(lookups);
  std::vector<std::uint32_t> dsts(lookups);
  std::uint32_t hot = 0;
  for (std::size_t i = 0; i < lookups; ++i) {
    srcs[i] = static_cast<std::uint32_t>(rng.index(entries));
    if (i % 4 != 0) {
      dsts[i] = hot;  // repeat the current hot destination (a frame burst)
    } else if (rng.chance(0.9)) {
      hot = static_cast<std::uint32_t>(rng.index(16));
      dsts[i] = hot;
    } else {
      dsts[i] = static_cast<std::uint32_t>(rng.index(entries));
    }
  }
  // Replays the (learn source, lookup destination) frame loop against
  // `table`, returning {ns per lookup, hits}.
  const auto replay = [&](bridge::MacTable& table) {
    std::uint64_t hits = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < lookups; ++i) {
      table.learn(macs[srcs[i]], static_cast<active::PortId>(srcs[i] % 8), now);
      if (table.lookup(macs[dsts[i]], now).has_value()) ++hits;
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::pair<double, std::uint64_t>(
        secs * 1e9 / static_cast<double>(lookups), hits);
  };
  bridge::MacTable flat;
  std::unordered_map<ether::MacAddress, active::PortId> map;
  for (std::size_t i = 0; i < entries; ++i) {
    flat.learn(macs[i], static_cast<active::PortId>(i % 8), now);
    map[macs[i]] = static_cast<active::PortId>(i % 8);
  }

  const auto [flat_ns, flat_hits] = replay(flat);

  std::uint64_t map_hits = 0;
  auto map_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lookups; ++i) {
    map[macs[srcs[i]]] = static_cast<active::PortId>(srcs[i] % 8);
    if (map.find(macs[dsts[i]]) != map.end()) ++map_hits;
  }
  const double map_secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - map_start)
                              .count();
  MacLookupProfile p;
  p.hits_agree = flat_hits == map_hits;
  if (!p.hits_agree) {
    std::fprintf(stderr, "mac_lookup: hit counts diverge (flat %llu, map %llu)\n",
                 static_cast<unsigned long long>(flat_hits),
                 static_cast<unsigned long long>(map_hits));
  }
  p.entries = entries;
  p.lookups = lookups;
  p.flat_ns_per_lookup = flat_ns;
  p.map_ns_per_lookup = map_secs * 1e9 / static_cast<double>(lookups);
  p.speedup = p.flat_ns_per_lookup > 0 ? p.map_ns_per_lookup / p.flat_ns_per_lookup
                                       : 0.0;

  return p;
}

/// The three acceptance cells every workload section must cover.
/// TCP incast: N senders, each on its own leaf LAN, converge through one
/// (ideal-cost) bridge onto a single hub-attached sink, with the aggregate
/// offered load paced at 2x the hub link -- the congestion case the UDP
/// ttcp grid cannot express, because only TCP turns overload into a
/// shared-bottleneck allocation (fixed 64 KB windows against rising
/// queueing delay; retransmits if queues do overflow) instead of silent
/// loss. The cell asserts every byte is eventually delivered (TCP's
/// reliability contract) and that goodput stays within a constant factor
/// of fair share; check_bench_smoke.sh re-checks the bounds from the JSON.
/// It also counts the frames it encoded: no segment of the cell has a tap,
/// relay, drop filter or capture, so nothing reads wire bytes and the lazy
/// datapath must build none. Encoding every transmitted frame read 0.50
/// per frame carried here: one encode per frame a host sends, which the
/// bridge then carries onto a second segment.
struct TcpIncastProfile {
  int senders = 0;
  double link_mbps = 0.0;
  double offered_mbps = 0.0;       ///< aggregate across all senders
  double goodput_mbps = 0.0;       ///< sink-side, first to last byte
  double fair_share_mbps = 0.0;    ///< link / senders
  double min_stream_mbps = 0.0;    ///< slowest connection over the window
  std::uint64_t retransmits = 0;   ///< summed over all senders
  std::uint64_t bytes_expected = 0;
  std::uint64_t bytes_received = 0;
  std::size_t connections = 0;
  std::uint64_t encodes = 0;         ///< Frame::encode calls over the run
  std::uint64_t frames_carried = 0;  ///< summed over the cell's segments
  [[nodiscard]] double encodes_per_frame() const {
    return frames_carried == 0 ? 0.0
                               : static_cast<double>(encodes) /
                                     static_cast<double>(frames_carried);
  }
};

TcpIncastProfile run_tcp_incast_profile(int senders, std::size_t bytes_each) {
  netsim::Network net;
  netsim::LanSegment& hub = net.add_segment("hub");
  const double link_bps = 100e6;  // LanConfig default: 100 Mbps Fast Ethernet

  bridge::BridgeNodeConfig bcfg;
  bcfg.name = "incast-bridge";
  bcfg.cost = netsim::CostModel::ideal();  // the LINK is the bottleneck
  bridge::BridgeNode bridge(net.scheduler(), bcfg);
  bridge.add_port(net.add_nic("b-hub", hub));

  stack::HostConfig sink_cfg;
  sink_cfg.ip = stack::Ipv4Addr(10, 0, 0, 100);
  stack::HostStack sink_host(net.scheduler(), net.add_nic("sink", hub), sink_cfg);
  apps::TcpTtcpSink sink(net.scheduler(), sink_host, 5001);

  // Each sender paced at 2*link/N: aggregate offered load is twice what
  // the hub link can carry, so the hub-port queue fills and TCP's windows
  // must arbitrate the bottleneck.
  const double per_sender_bps = 2.0 * link_bps / senders;
  std::vector<std::unique_ptr<stack::HostStack>> hosts;
  std::vector<std::unique_ptr<apps::TcpTtcpSender>> streams;
  for (int i = 0; i < senders; ++i) {
    netsim::LanSegment& leaf = net.add_segment("leaf" + std::to_string(i));
    bridge.add_port(net.add_nic("b-leaf" + std::to_string(i), leaf));
    stack::HostConfig hc;
    hc.ip = stack::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i));
    hosts.push_back(std::make_unique<stack::HostStack>(
        net.scheduler(), net.add_nic("snd" + std::to_string(i), leaf), hc));
    apps::TtcpConfig cfg;
    cfg.destination = sink_host.ip();
    cfg.port = 5001;
    cfg.write_size = 8192;
    cfg.total_bytes = bytes_each;
    streams.push_back(
        std::make_unique<apps::TcpTtcpSender>(*hosts.back(), cfg, per_sender_bps));
  }
  // No spanning tree (single bridge, no loops): ports forward immediately.
  bridge.load_dumb();
  bridge.load_learning();
  ether::datapath_counters() = {};
  for (auto& s : streams) s->start();
  net.scheduler().run_for(netsim::seconds(120));

  TcpIncastProfile p;
  p.encodes = ether::datapath_counters().encodes;
  for (const auto& segment : net.segments()) {
    p.frames_carried += segment->stats().frames_carried;
  }
  p.senders = senders;
  p.link_mbps = link_bps / 1e6;
  p.offered_mbps = per_sender_bps * senders / 1e6;
  p.fair_share_mbps = link_bps / senders / 1e6;
  p.goodput_mbps = sink.throughput_mbps();
  p.bytes_expected = static_cast<std::uint64_t>(bytes_each) * senders;
  p.bytes_received = sink.bytes_received();
  p.connections = sink.connections_accepted();
  for (const auto& s : streams) {
    if (s->started()) p.retransmits += s->socket().stats().retransmits;
  }
  const double window_s = netsim::to_seconds(sink.last_at() - sink.first_at());
  if (window_s > 0) {
    double min_bytes = static_cast<double>(bytes_each);
    for (const stack::TcpSocket* c : sink.connections()) {
      min_bytes = std::min(min_bytes,
                           static_cast<double>(c->stats().bytes_received));
    }
    p.min_stream_mbps = min_bytes * 8.0 / window_s / 1e6;
  }
  return p;
}

std::vector<netsim::TopologySpec> acceptance_cells() {
  std::vector<netsim::TopologySpec> grid;
  grid.push_back(spec_of(netsim::TopologyShape::kRing, 32, 4));
  netsim::TopologySpec kreg = spec_of(netsim::TopologyShape::kRandomKRegular, 32, 1);
  kreg.degree = 4;
  kreg.seed = 7;
  grid.push_back(kreg);
  // The thousand-station LANs the widened 10/8 address plan unlocked.
  grid.push_back(spec_of(netsim::TopologyShape::kStar, 4, 1000));
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // ---- flood+pings over the shape grid ------------------------------------
  std::vector<netsim::TopologySpec> flood_grid;
  if (smoke) {
    flood_grid.push_back(spec_of(netsim::TopologyShape::kRing, 4, 1));
    flood_grid.push_back(spec_of(netsim::TopologyShape::kLine, 4, 1));
  } else {
    for (int n : {4, 8, 16}) {
      flood_grid.push_back(spec_of(netsim::TopologyShape::kRing, n, 4));
    }
    flood_grid.push_back(spec_of(netsim::TopologyShape::kLine, 16, 2));
    flood_grid.push_back(spec_of(netsim::TopologyShape::kStar, 16, 2));
    flood_grid.push_back(spec_of(netsim::TopologyShape::kTree, 15, 2));
    flood_grid.push_back(spec_of(netsim::TopologyShape::kMesh, 6, 1));
    netsim::TopologySpec kreg = spec_of(netsim::TopologyShape::kRandomKRegular, 32, 1);
    kreg.degree = 4;
    kreg.seed = 7;
    flood_grid.push_back(kreg);
    netsim::TopologySpec sf = spec_of(netsim::TopologyShape::kScaleFree, 32, 1);
    sf.attach = 2;
    sf.seed = 7;
    flood_grid.push_back(sf);
  }
  // The headline cell, always present: ring-32 x 4 hosts per LAN under
  // flood + learning, driven to 802.1D convergence.
  flood_grid.push_back(spec_of(netsim::TopologyShape::kRing, 32, 4));

  apps::TopologySweep sweep;
  const std::vector<apps::SweepResult> cells = sweep.run_grid(flood_grid);
  std::printf("%s", apps::TopologySweep::format_table(cells).c_str());

  const apps::SweepResult& headline = cells.back();
  if (!headline.stp_converged) {
    std::fprintf(stderr, "ring-32x4 did NOT converge -- investigate\n");
  }
  std::printf(
      "\nheadline ring-32x4: converged=%s, %llu events in %.3f s wall "
      "(%.0f events/sec, %.1f s simulated)\n",
      headline.stp_converged ? "yes" : "no",
      static_cast<unsigned long long>(headline.events), headline.wall_seconds,
      headline.events_per_sec, headline.virtual_seconds);

  // ---- flood-dominated star profile (events per broadcast) ----------------
  const FloodProfile flood = run_flood_profile(1000, 128);
  std::printf(
      "\nflood profile: %zu receivers, %d broadcasts -> %llu events "
      "(%.2f events/broadcast; per-receiver model %.0f), %llu inserts "
      "(%.2f inserts/broadcast; per-frame model %.1f)\n",
      flood.receivers, flood.broadcasts,
      static_cast<unsigned long long>(flood.events), flood.events_per_broadcast,
      flood.per_receiver_model(), static_cast<unsigned long long>(flood.inserts),
      flood.inserts_per_broadcast, flood.per_frame_insert_model());
  // O(1) bound, with slack for future per-frame bookkeeping events. It must
  // sit strictly below the per-receiver model (receivers + 1): a regression
  // to one-event-per-receiver delivery costs exactly that, so a bound AT
  // receivers + 1 would never fire. The insert bound pins the batched
  // delivery side: a k-broadcast burst now costs TWO heap inserts total
  // (one timed run for the transmit completions, one for the paced
  // deliveries), so inserts/broadcast is ~2/k -- 0.016 at k=128. The old
  // per-frame chain paid 2.0 per broadcast; 0.25 fails on any per-frame
  // regression of either side while leaving headroom for small bursts.
  constexpr double kMaxEventsPerBroadcast = 4.0;
  constexpr double kMaxInsertsPerBroadcast = 0.25;
  const bool flood_ok =
      flood.events_per_broadcast <= kMaxEventsPerBroadcast &&
      flood.inserts_per_broadcast <= kMaxInsertsPerBroadcast &&
      flood.frames_delivered ==
          flood.receivers * static_cast<std::uint64_t>(flood.broadcasts);
  if (!flood_ok) {
    std::fprintf(stderr,
                 "flood profile regressed to per-receiver delivery events, "
                 "per-frame transmit inserts, or dropped frames -- "
                 "investigate\n");
  }

  // ---- bridge egress hop (inserts per flood) ------------------------------
  const EgressProfile egress = run_egress_profile(8, smoke ? 64 : 512);
  std::printf(
      "\negress profile: %zu ports, %d floods -> %llu inserts "
      "(%.2f inserts/flood; per-port model %.0f)\n",
      egress.ports, egress.floods, static_cast<unsigned long long>(egress.inserts),
      egress.inserts_per_flood, egress.per_port_model());
  // One TxBatch run per flood hop. Strictly below the per-port model: a
  // regression to per-port Nic::transmit costs exactly ports - 1 inserts.
  constexpr double kMaxInsertsPerFlood = 2.0;
  const bool egress_ok = egress.inserts_per_flood <= kMaxInsertsPerFlood;
  if (!egress_ok) {
    std::fprintf(stderr,
                 "egress profile regressed to per-port scheduler inserts -- "
                 "investigate\n");
  }

  // ---- ttcp write hop (inserts per 8 KB write) ----------------------------
  const TtcpWriteProfile write_profile =
      run_ttcp_write_profile(8192, smoke ? 32 : 256);
  std::printf(
      "ttcp write profile: %zu B writes (%zu fragments), %d writes -> "
      "%llu inserts (%.2f inserts/write; per-fragment model %.0f)\n",
      write_profile.write_size, write_profile.fragments, write_profile.writes,
      static_cast<unsigned long long>(write_profile.inserts),
      write_profile.inserts_per_write, write_profile.per_fragment_model());
  // One processing-element run per write. Strictly below the per-fragment
  // model (6 for 8 KB writes at MTU 1500).
  constexpr double kMaxInsertsPerWrite = 2.0;
  const bool write_ok = write_profile.inserts_per_write <= kMaxInsertsPerWrite;
  if (!write_ok) {
    std::fprintf(stderr,
                 "ttcp write profile regressed to per-fragment scheduler "
                 "inserts -- investigate\n");
  }

  // ---- MAC table lookup (flat hash + last-destination cache) --------------
  const MacLookupProfile mac = run_mac_lookup_profile(
      4096, smoke ? std::size_t{200000} : std::size_t{4000000});
  std::printf(
      "mac_lookup: %zu entries, %zu lookups -> flat %.1f ns/lookup, "
      "unordered_map %.1f ns/lookup (%.2fx)\n",
      mac.entries, mac.lookups, mac.flat_ns_per_lookup, mac.map_ns_per_lookup,
      mac.speedup);
  if (!mac.hits_agree) {
    std::fprintf(stderr,
                 "mac_lookup: flat table disagrees with the reference map -- "
                 "investigate\n");
  }

  // ---- ttcp streams across LANs -------------------------------------------
  apps::TtcpStreamWorkload::Options ttcp_opts;
  if (smoke) ttcp_opts.bytes_per_stream = 64 * 1024;
  apps::TtcpStreamWorkload ttcp(ttcp_opts);
  const std::vector<apps::SweepResult> ttcp_cells =
      sweep.run_grid(acceptance_cells(), ttcp);
  std::printf("\n%s", apps::TopologySweep::format_table(ttcp_cells).c_str());

  // ---- ttcp streams converging on a scale-free hub ------------------------
  // The ROADMAP "stream placement strategies" knob at work: every sink on
  // the hub segment of a Barabasi-Albert shape, so the new egress path is
  // exercised where most spanning trees funnel.
  apps::TtcpStreamWorkload::Options hub_opts = ttcp_opts;
  hub_opts.placement = apps::TtcpStreamWorkload::Placement::kHubTargeted;
  apps::TtcpStreamWorkload hub_ttcp(hub_opts);
  std::vector<netsim::TopologySpec> hub_grid;
  netsim::TopologySpec hub_spec = spec_of(netsim::TopologyShape::kScaleFree, 32, 2);
  hub_spec.attach = 2;
  hub_spec.seed = 7;
  hub_grid.push_back(hub_spec);
  const std::vector<apps::SweepResult> hub_cells =
      sweep.run_grid(hub_grid, hub_ttcp);
  std::printf("\n%s", apps::TopologySweep::format_table(hub_cells).c_str());

  // ---- TCP incast onto a hub sink -----------------------------------------
  const TcpIncastProfile incast =
      run_tcp_incast_profile(8, smoke ? 256 * 1024 : 1024 * 1024);
  std::printf(
      "\ntcp incast: %d senders offering %.0f Mb/s onto a %.0f Mb/s hub link "
      "-> %.1f Mb/s goodput (fair share %.1f, slowest stream %.1f), "
      "%llu retransmits, %llu/%llu bytes delivered on %zu connections, "
      "%llu encodes over %llu frames carried\n",
      incast.senders, incast.offered_mbps, incast.link_mbps,
      incast.goodput_mbps, incast.fair_share_mbps, incast.min_stream_mbps,
      static_cast<unsigned long long>(incast.retransmits),
      static_cast<unsigned long long>(incast.bytes_received),
      static_cast<unsigned long long>(incast.bytes_expected),
      incast.connections, static_cast<unsigned long long>(incast.encodes),
      static_cast<unsigned long long>(incast.frames_carried));
  // Reliability is exact (every offered byte delivered); the goodput bounds
  // are loose constant factors that only an incast COLLAPSE (RTO
  // synchronization serializing the streams) can break. Mirrored in
  // scripts/check_bench_smoke.sh.
  const bool incast_ok =
      incast.connections == static_cast<std::size_t>(incast.senders) &&
      incast.bytes_received == incast.bytes_expected &&
      incast.goodput_mbps >= incast.link_mbps / 4.0 &&
      incast.min_stream_mbps >= incast.fair_share_mbps / 8.0;
  if (!incast_ok) {
    std::fprintf(stderr,
                 "tcp incast cell regressed (lost bytes, missing "
                 "connections, or goodput collapse) -- investigate\n");
  }
  // Nothing reads the cell's wire bytes, so the lazy datapath builds none.
  // Mirrored in scripts/check_bench_smoke.sh.
  const bool incast_lazy = incast.encodes == 0;
  if (!incast_lazy) {
    std::fprintf(stderr,
                 "tcp incast cell encoded %.4f times per frame carried with "
                 "nothing reading the bytes -- transmit is forcing an encode\n",
                 incast.encodes_per_frame());
  }

  // ---- staged switchlet rollout -------------------------------------------
  apps::SweepOptions rollout_opts;
  rollout_opts.build.netloader = true;
  apps::TopologySweep rollout_sweep(rollout_opts);
  apps::RolloutWorkload rollout;
  const std::vector<apps::SweepResult> rollout_cells =
      rollout_sweep.run_grid(acceptance_cells(), rollout);
  std::printf("\n%s", apps::TopologySweep::format_table(rollout_cells).c_str());

  bool rollouts_ok = true;
  for (const apps::SweepResult& c : rollout_cells) {
    if (!c.rollout_ok()) {
      rollouts_ok = false;
      std::fprintf(stderr, "%s: rollout had failing steps\n", c.label.c_str());
    }
  }

  // ---- station scale: 10^6 stations under the aggregate workload ----------
  // star-8x125000: hub + 8 leaf LANs x 125000 stations = 1,125,000 stations,
  // every one a real arena-backed Nic + HostStack on its segment. The
  // aggregate workload keeps 2 talkers per LAN fully active (cross-LAN
  // pings + one ttcp stream + a flood burst) and drives a seeded sample of
  // the rest as pre-encoded ARP+ping background, so the cell exercises
  // flood, learning, and directed forwarding without 10^6 live timers.
  // Always run, smoke included: the per-station build/memory bounds below
  // are the acceptance gate for slab-backed station state.
  apps::AggregateHostWorkload::Options agg_opts;
  agg_opts.background_per_lan = smoke ? 8 : 16;
  apps::AggregateHostWorkload aggregate(agg_opts);
  std::vector<netsim::TopologySpec> station_grid;
  station_grid.push_back(spec_of(netsim::TopologyShape::kStar, 8, 125000));
  // Fork the cell even though the grid has one entry: peak_rss_bytes and
  // bytes_per_station are then measured in a child process that built ONLY
  // this cell, not inherited from whatever the earlier grids above grew
  // the parent's heap to. (Non-Linux falls back to in-process.)
  apps::SweepOptions station_opts;
  station_opts.fork_cells = true;
  apps::TopologySweep station_sweep(station_opts);
  const std::vector<apps::SweepResult> station_cells =
      station_sweep.run_grid(station_grid, aggregate);
  const apps::SweepResult& station = station_cells.front();
  const double visits_per_frame =
      station.frames_carried > 0
          ? static_cast<double>(station.receivers_visited) /
                static_cast<double>(station.frames_carried)
          : 0.0;
  std::printf("\n%s", apps::TopologySweep::format_table(station_cells).c_str());
  std::printf(
      "station scale %s: %d stations built in %.0f ms (%.2f us/station), "
      "%.0f bytes/station, peak RSS %.0f MiB, %.1f receiver visits/frame\n",
      station.label.c_str(), station.hosts, station.build_ms,
      station.hosts > 0 ? station.build_ms * 1e3 / station.hosts : 0.0,
      station.bytes_per_station,
      static_cast<double>(station.peak_rss_bytes) / (1024.0 * 1024.0),
      visits_per_frame);
  // Bounds sized against the pre-arena model, where every station cost
  // individual heap objects (Nic + HostStack + an eager per-NIC deque) and
  // LAN attachment paid a per-NIC membership scan: 1433 B and 16.2 us per
  // station on the reference box for this exact cell. Slab allocation,
  // the lazily-allocating FrameFifo, and O(1) attach measure 804 B and
  // 0.64-2.3 us per station (build time swings ~3x run to run on shared
  // boxes); the bounds sit between the two models so any regression
  // toward per-object allocation, eager queues, or quadratic attach fails
  // the bench, with headroom for machine noise.
  constexpr double kMaxBytesPerStation = 1024.0;
  constexpr double kMaxBuildUsPerStation = 6.0;
  // Receivers a carried frame costs. The station index hands a frame to
  // the walk list (at most the hub's 8 bridge ports) plus the stations it
  // concerns; a regression to the full walk costs ~125,000.
  constexpr double kMaxVisitsPerFrame = 16.0;
  const double build_us_per_station =
      station.hosts > 0 ? station.build_ms * 1e3 / station.hosts : 1e9;
  const bool station_ok =
      station.hosts >= 1000000 &&
      (station.bytes_per_station == 0.0 ||  // RSS not visible on this platform
       station.bytes_per_station <= kMaxBytesPerStation) &&
      build_us_per_station <= kMaxBuildUsPerStation &&
      station.frames_carried > 0 && visits_per_frame <= kMaxVisitsPerFrame &&
      station.pings_answered == station.pings_sent && station.pings_sent > 0;
  if (!station_ok) {
    std::fprintf(stderr,
                 "station-scale cell regressed (size, per-station memory, "
                 "build time, receiver visits per frame, or lost pings) -- "
                 "investigate\n");
  }

  std::FILE* f = std::fopen("BENCH_topology.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_topology.json\n");
    return 1;
  }
  // flood_profile, egress_profile, ttcp_write_profile and mac_lookup each
  // stay on one line: scripts/check_bench_smoke.sh greps them.
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"topology_sweep\",\n"
               "  \"smoke\": %s,\n"
               "  \"headline\": {\"cell\": \"%s\", \"stp_converged\": %s,\n"
               "    \"events\": %llu, \"wall_seconds\": %.6f, "
               "\"events_per_sec\": %.0f},\n"
               "  \"flood_profile\": {\"receivers\": %zu, \"broadcasts\": %d, "
               "\"events\": %llu, \"events_per_broadcast\": %.2f, "
               "\"per_receiver_event_model\": %.0f, "
               "\"inserts\": %llu, \"inserts_per_broadcast\": %.2f, "
               "\"per_frame_insert_model\": %.1f},\n"
               "  \"egress_profile\": {\"ports\": %zu, \"floods\": %d, "
               "\"inserts\": %llu, \"inserts_per_flood\": %.2f, "
               "\"per_port_model\": %.0f},\n"
               "  \"ttcp_write_profile\": {\"write_size\": %zu, "
               "\"fragments\": %zu, \"writes\": %d, \"inserts\": %llu, "
               "\"inserts_per_write\": %.2f, \"per_fragment_model\": %.0f},\n"
               "  \"mac_lookup\": {\"entries\": %zu, \"lookups\": %zu, "
               "\"flat_ns_per_lookup\": %.1f, \"map_ns_per_lookup\": %.1f, "
               "\"speedup\": %.2f},\n"
               "  \"aggregate_profile\": {\"cell\": \"%s\", \"stations\": %d, "
               "\"build_ms\": %.2f, \"build_us_per_station\": %.3f, "
               "\"peak_rss_bytes\": %llu, \"bytes_per_station\": %.1f, "
               "\"frames_carried\": %llu, \"receivers_visited\": %llu, "
               "\"receiver_visits_per_frame\": %.2f, "
               "\"pings_sent\": %d, \"pings_answered\": %d},\n"
               "  \"tcp_incast\": {\"senders\": %d, \"link_mbps\": %.1f, "
               "\"offered_mbps\": %.1f, \"goodput_mbps\": %.2f, "
               "\"fair_share_mbps\": %.2f, \"min_stream_mbps\": %.2f, "
               "\"retransmits\": %llu, \"bytes_expected\": %llu, "
               "\"bytes_received\": %llu, \"connections\": %zu, "
               "\"encodes\": %llu, \"frames_carried\": %llu, "
               "\"encodes_per_frame\": %.4f},\n"
               "  \"cells\": %s,\n"
               "  \"ttcp_streams\": %s,\n"
               "  \"ttcp_hub\": %s,\n"
               "  \"rollout\": %s,\n"
               "  \"station_scale\": %s"
               "}\n",
               smoke ? "true" : "false", headline.label.c_str(),
               headline.stp_converged ? "true" : "false",
               static_cast<unsigned long long>(headline.events),
               headline.wall_seconds, headline.events_per_sec, flood.receivers,
               flood.broadcasts, static_cast<unsigned long long>(flood.events),
               flood.events_per_broadcast, flood.per_receiver_model(),
               static_cast<unsigned long long>(flood.inserts),
               flood.inserts_per_broadcast, flood.per_frame_insert_model(),
               egress.ports, egress.floods,
               static_cast<unsigned long long>(egress.inserts),
               egress.inserts_per_flood, egress.per_port_model(),
               write_profile.write_size, write_profile.fragments,
               write_profile.writes,
               static_cast<unsigned long long>(write_profile.inserts),
               write_profile.inserts_per_write, write_profile.per_fragment_model(),
               mac.entries, mac.lookups, mac.flat_ns_per_lookup,
               mac.map_ns_per_lookup, mac.speedup,
               station.label.c_str(), station.hosts, station.build_ms,
               build_us_per_station,
               static_cast<unsigned long long>(station.peak_rss_bytes),
               station.bytes_per_station,
               static_cast<unsigned long long>(station.frames_carried),
               static_cast<unsigned long long>(station.receivers_visited),
               visits_per_frame, station.pings_sent,
               station.pings_answered, incast.senders, incast.link_mbps,
               incast.offered_mbps, incast.goodput_mbps,
               incast.fair_share_mbps, incast.min_stream_mbps,
               static_cast<unsigned long long>(incast.retransmits),
               static_cast<unsigned long long>(incast.bytes_expected),
               static_cast<unsigned long long>(incast.bytes_received),
               incast.connections, static_cast<unsigned long long>(incast.encodes),
               static_cast<unsigned long long>(incast.frames_carried),
               incast.encodes_per_frame(),
               apps::TopologySweep::format_json(cells).c_str(),
               apps::TopologySweep::format_json(ttcp_cells).c_str(),
               apps::TopologySweep::format_json(hub_cells).c_str(),
               apps::TopologySweep::format_json(rollout_cells).c_str(),
               apps::TopologySweep::format_json(station_cells).c_str());
  std::fclose(f);
  std::printf("wrote BENCH_topology.json\n");
  return headline.stp_converged && rollouts_ok && flood_ok && egress_ok &&
                 write_ok && mac.hits_agree && station_ok && incast_ok && incast_lazy
             ? 0
             : 1;
}
