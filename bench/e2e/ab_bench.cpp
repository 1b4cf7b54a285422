// ab_bench: the outside-in end-to-end benchmark (bench/e2e/README.md).
//
// Drives four named workloads through the public TopologySweep::run_cell
// API and splits every cell into build | converge | traffic | teardown
// without touching the simulator: a PhaseProbe decorator wraps the
// workload and timestamps Workload::run, SweepResult::build_ms gives the
// build, and the timestamps around run_cell bound the cell.
//
// Every rep runs in a forked child -- its own peak RSS, no warm heap left
// by an earlier rep -- and ships one fixed-size record back over a pipe.
// Reps run one at a time, round-robin across workloads, so machine drift
// hits every workload alike. This is a closed loop: one caller waits for
// each cell, as a sweep user does.
//
// Untraced reps give the end-to-end metrics. Traced reps also snapshot the
// layers' public counters on entry to and exit from Workload::run, and a
// probe child times one public entry point per layer at the workload's
// shape; layer metrics come from that traced pass only.
//
//   ab_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//            [--out FILE] [--trace-out FILE] [--smoke]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1,
// both for `all` and --smoke). Exit 0 when every correctness check held,
// 1 when one failed, 2 on bad usage.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/apps/scenario.h"
#include "src/bridge/learning.h"
#include "src/stack/arp.h"

// Compiled in by CMakeLists.txt: AB_BENCH_BUILD_TYPE, AB_BENCH_COMPILER (the
// fingerprint), AB_BENCH_EXPECTED (the path of expected.json) and
// AB_BENCH_CONFIG (the path of BENCHMARK.json).

namespace {

namespace apps = ab::apps;
namespace bridge = ab::bridge;
namespace ether = ab::ether;
namespace netsim = ab::netsim;
namespace stack = ab::stack;

/// steady_clock (CLOCK_MONOTONIC) seconds: comparable across the forked
/// children, so their timestamps land on one trace timeline.
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return std::string(buf, static_cast<std::size_t>(std::clamp(n, 0, 1023)));
}

// ---------------------------------------------------------------------------
// Statistics

struct Summary {
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

/// Median and quartiles exactly as Python's statistics.median and
/// statistics.quantiles(values, n=4) (the default exclusive method), so the
/// numbers here and in compare.py agree.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = v.front();
    return s;
  }
  const auto quartile = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// ---------------------------------------------------------------------------
// JSON: a writer for the outputs and a small reader for expected.json and
// BENCHMARK.json.

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  return std::isfinite(v) ? format("%.17g", v) : "null";
}

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  [[nodiscard]] const Json* get(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  JsonReader(std::string name, std::string_view text) : name_(std::move(name)), s_(text) {}

  Json document() {
    Json v = value();
    skip_space();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(format("%s: %s at offset %zu", name_.c_str(), what, i_));
  }
  void skip_space() {
    while (i_ < s_.size() && std::string_view(" \t\r\n").find(s_[i_]) != std::string_view::npos) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip_space();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool eat_word(std::string_view w) {
    if (s_.substr(i_, w.size()) != w) return false;
    i_ += w.size();
    return true;
  }
  std::string string_body() {
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') fail("escapes are not supported");
      out += s_[i_++];
    }
    if (i_ == s_.size()) fail("unterminated string");
    ++i_;
    return out;
  }
  Json value() {
    Json v;
    if (eat('{')) {
      v.kind = Json::Kind::kObject;
      if (eat('}')) return v;
      do {
        if (!eat('"')) fail("expected a key");
        std::string key = string_body();
        if (!eat(':')) fail("expected ':'");
        v.members.emplace_back(std::move(key), value());
      } while (eat(','));
      if (!eat('}')) fail("expected '}'");
    } else if (eat('[')) {
      v.kind = Json::Kind::kArray;
      if (eat(']')) return v;
      do {
        v.items.push_back(value());
      } while (eat(','));
      if (!eat(']')) fail("expected ']'");
    } else if (eat('"')) {
      v.kind = Json::Kind::kString;
      v.string = string_body();
    } else if (eat_word("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (eat_word("false")) {
      v.kind = Json::Kind::kBool;
    } else if (eat_word("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      const std::string rest(s_.substr(i_, 40));
      char* end = nullptr;
      v.number = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) fail("expected a value");
      v.kind = Json::Kind::kNumber;
      i_ += static_cast<std::size_t>(end - rest.c_str());
    }
    return v;
  }

  std::string name_;
  std::string_view s_;
  std::size_t i_ = 0;
};

// ---------------------------------------------------------------------------
// What one rep sends back to the parent (fixed size: it crosses a pipe).

constexpr std::size_t kMaxStreams = 16;
constexpr std::size_t kTextBytes = 256;

/// A cell's simulated outcome: what the correctness gate pins and what
/// every rep of one input must reproduce. Scheduler counters stay out --
/// speed work legitimately moves them.
struct Observables {
  std::uint64_t frames_carried = 0;
  std::uint64_t bytes_carried = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t mac_entries = 0;
  std::int64_t pings_sent = 0;
  std::int64_t pings_answered = 0;
  std::uint64_t streams = 0;
  std::array<std::uint64_t, kMaxStreams> stream_bytes_received{};
  bool stp_converged = false;
  double virtual_seconds = 0;

  friend bool operator==(const Observables&, const Observables&) = default;
};

/// Layer counters a traced rep sums from public stats. Entry order is the
/// report order; kCounterNames must match.
enum Counter : std::size_t {
  kEvents,
  kHeapInserts,
  kScheduledEntries,
  kFramesCarried,
  kRxAccepted,
  kRxFiltered,
  kTxFrames,
  kTxDropped,
  kShardRounds,
  kBridgeReceived,
  kBridgeFlooded,
  kBridgeDirected,
  kLearnHits,
  kLearnFloods,
  kArpRequests,
  kArpReplies,
  kIpPackets,
  kUdpDelivered,
  kTcpDelivered,
  kEchoAnswered,
  kEchoReplies,
  kTcpRetransmits,
  kCounterCount,
};
constexpr std::array<const char*, kCounterCount> kCounterNames = {
    "netsim.scheduler.events",
    "netsim.scheduler.heap_inserts",
    "netsim.scheduler.scheduled_entries",
    "netsim.lan.frames_carried",
    "netsim.lan.rx_accepted",
    "netsim.lan.rx_filtered",
    "netsim.nic.tx_frames",
    "netsim.nic.tx_dropped",
    "netsim.shard.rounds",
    "bridge.forwarding.received",
    "bridge.forwarding.flooded",
    "bridge.forwarding.directed",
    "bridge.learning.hits",
    "bridge.learning.floods",
    "stack.host.arp_requests_sent",
    "stack.host.arp_replies_sent",
    "stack.host.ip_packets_sent",
    "stack.host.udp_delivered",
    "stack.host.tcp_delivered",
    "stack.host.echo_requests_answered",
    "stack.host.echo_replies_received",
    "stack.tcp.retransmits",
};
using Counters = std::array<std::uint64_t, kCounterCount>;

/// The workload's shape at traffic start, which the layer probes mirror.
struct Shape {
  double pending_events = 0;    ///< scheduler queue depth (all shards)
  double stations_per_lan = 0;  ///< attached NICs per LAN
  double table_per_bridge = 0;  ///< learned MACs per bridge at cell end
};

struct RepRecord {
  char error[kTextBytes] = {};
  char cell[64] = {};
  std::size_t input = 0;  ///< which of the run's inputs (see input_seed)
  bool traced = false;
  // now_s() stamps. Untraced reps have t_snap_in == t_enter and
  // t_snap_out == t_exit (no counter snapshots).
  double t_call = 0;      ///< before run_cell: the build starts
  double t_snap_in = 0;   ///< convergence done; entry snapshot starts
  double t_enter = 0;     ///< Workload::run entered
  double t_exit = 0;      ///< Workload::run returned
  double t_snap_out = 0;  ///< exit snapshot done; teardown starts
  double t_return = 0;    ///< run_cell returned
  double build_s = 0;     ///< SweepResult::build_ms
  double bytes_per_station = 0;
  double peak_rss_mb = 0;  ///< filled by the parent from wait4
  Observables obs;
  std::uint64_t short_streams = 0;  ///< streams that delivered < bytes sent
  Counters layers{};                ///< traced: run-phase deltas
  Shape shape;                      ///< traced only

  [[nodiscard]] double cell_s() const { return t_return - t_call; }
  [[nodiscard]] double setup_s() const { return t_snap_in - t_call; }
  [[nodiscard]] double run_s() const { return t_exit - t_enter; }
  [[nodiscard]] double converge_s() const { return t_snap_in - t_call - build_s; }
  [[nodiscard]] double teardown_s() const { return t_return - t_snap_out; }
};

struct ProbeRecord {
  char error[kTextBytes] = {};
  double ns_per_event = 0;
  double ns_per_accept = 0;
  double ns_per_filter = 0;
  double ns_per_frame = 0;
  double ns_per_foreign_arp = 0;
  std::array<double, 4> begin{};  ///< per probe (kProbeNames order)
  std::array<double, 4> end{};
  double peak_rss_mb = 0;
};
constexpr std::array<const char*, 4> kProbeNames = {
    "probe.netsim.scheduler", "probe.netsim.lan", "probe.bridge.learning",
    "probe.stack.host"};

template <std::size_t N>
void set_text(char (&dst)[N], std::string_view text) {
  const std::size_t n = std::min(text.size(), N - 1);
  std::memcpy(dst, text.data(), n);
  dst[n] = '\0';
}

// ---------------------------------------------------------------------------
// Workloads

/// An untraced run sweeps this many inputs drawn from its seed, one per
/// rep in turn, and reports medians over them. A single random graph makes
/// a poor sample: on the scale-free workload the STP convergence cost alone
/// varies 2x from one graph to the next.
constexpr std::size_t kInputsPerRun = 4;

/// Seed of input `k` of a run seeded `seed`; input 0 is the seed itself.
std::uint64_t input_seed(std::uint64_t seed, std::size_t input) {
  return seed + input * 1'000'003ull;
}

struct WorkloadDef {
  std::string name;
  netsim::TopologySpec spec;
  apps::SweepOptions options;
  /// The seed picks the random graph (TopologySpec::seed) when true, the
  /// aggregate background sample otherwise.
  bool seed_shapes_topology = false;
  std::function<std::unique_ptr<apps::Workload>(std::uint64_t seed)> traffic;
  /// Workload whose observables this one must reproduce exactly.
  std::string oracle;
};

/// Calls `fn` on every LAN segment of the cell: the single network's, or
/// every region's replicas in a sharded cell.
template <typename Fn>
void for_each_lan(const apps::WorkloadContext& ctx, Fn&& fn) {
  if (ctx.is_sharded()) {
    for (const auto& region : ctx.sharded->regions) {
      for (netsim::LanSegment* replica : region->replicas) {
        if (replica != nullptr) fn(replica);
      }
    }
  } else {
    for (netsim::LanSegment* lan : ctx.single_topo->shape.lans) fn(lan);
  }
}

/// Gives every NIC of the cell -- bridge ports included -- the hosts'
/// transmit queue depth before the inner workload starts. FloodPing's
/// neighbour pings all ARP at the same instant; on kregular-256x4 that is
/// 2048 broadcasts flooded through every bridge port at once, which the
/// ports' default 512-frame queues tail-drop, and on about one graph in
/// twenty a dropped frame leaves a ping unanswered. With deep queues every
/// ping is answered and every bridge learns every station on every graph,
/// so the workload has no failed operations at any seed.
class DeepTxQueues final : public apps::Workload {
 public:
  explicit DeepTxQueues(std::unique_ptr<apps::Workload> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  void run(apps::WorkloadContext& ctx, apps::SweepResult& result) override {
    const std::size_t depth = ctx.options.build.host_tx_queue_limit;
    for_each_lan(ctx, [&](netsim::LanSegment* lan) {
      for (netsim::Nic* nic : lan->attached()) {
        if (nic != nullptr) nic->set_tx_queue_limit(depth);
      }
    });
    inner_->run(ctx, result);
  }

 private:
  std::unique_ptr<apps::Workload> inner_;
};

int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/// The four workloads. --smoke shrinks each cell so the self-check runs in
/// seconds; the full cells are the ones README.md describes.
std::vector<WorkloadDef> make_workloads(bool smoke) {
  std::vector<WorkloadDef> all;

  WorkloadDef kreg;
  kreg.name = "kreg-flood";
  kreg.spec.shape = netsim::TopologyShape::kRandomKRegular;
  kreg.spec.nodes = smoke ? 32 : 256;
  kreg.spec.hosts_per_lan = 4;
  kreg.spec.degree = 4;
  kreg.seed_shapes_topology = true;
  kreg.traffic = [](std::uint64_t) -> std::unique_ptr<apps::Workload> {
    return std::make_unique<DeepTxQueues>(std::make_unique<apps::FloodPingWorkload>());
  };
  all.push_back(kreg);

  WorkloadDef tcp;
  tcp.name = "tcp-hub";
  tcp.spec.shape = netsim::TopologyShape::kScaleFree;
  tcp.spec.nodes = 32;
  tcp.spec.hosts_per_lan = 2;
  tcp.spec.attach = 2;
  tcp.seed_shapes_topology = true;
  tcp.options.traffic_window = netsim::seconds(20);
  tcp.traffic = [bytes = std::size_t{smoke ? 1u : 16u} << 20](std::uint64_t) {
    apps::TtcpStreamWorkload::Options o;
    o.transport = apps::TtcpStreamWorkload::Transport::kTcp;
    o.placement = apps::TtcpStreamWorkload::Placement::kHubTargeted;
    o.streams = 8;
    o.bytes_per_stream = bytes;
    return std::make_unique<apps::TtcpStreamWorkload>(o);
  };
  all.push_back(tcp);

  WorkloadDef agg;
  agg.name = "star-agg";
  agg.spec.shape = netsim::TopologyShape::kStar;
  agg.spec.nodes = 8;
  agg.spec.hosts_per_lan = smoke ? 1250 : 12500;
  agg.traffic = [](std::uint64_t seed) {
    apps::AggregateHostWorkload::Options o;
    o.seed = seed;
    return std::make_unique<apps::AggregateHostWorkload>(o);
  };
  all.push_back(agg);

  // Reported by `all` runs and on request, but not one of BENCHMARK.json's
  // workloads: four threads barrier-syncing on a shared 4-vCPU host spread
  // 13-16% from run to run, too wide to hold a regression bound.
  WorkloadDef agg_t4 = agg;
  agg_t4.name = "star-agg-t4";
  agg_t4.options.shard_regions = 8;
  agg_t4.options.threads = bench_threads();
  agg_t4.oracle = agg.name;
  all.push_back(agg_t4);

  return all;
}

// ---------------------------------------------------------------------------
// Layer counters, read through the public API only.

/// Sums every layer counter over the whole cell (both execution modes).
/// When `shape` is given, also records the queue depth and LAN population.
Counters collect(const apps::WorkloadContext& ctx, Shape* shape) {
  Counters c{};
  std::size_t nics = 0;
  const auto add_lan = [&](const netsim::LanSegment* lan) {
    for (const netsim::Nic* nic : lan->attached()) {
      if (nic == nullptr) continue;  // detach tombstone
      const netsim::NicStats& s = nic->stats();
      c[kRxAccepted] += s.rx_frames;
      c[kRxFiltered] += s.rx_filtered;
      c[kTxFrames] += s.tx_frames;
      c[kTxDropped] += s.tx_dropped;
      ++nics;
    }
  };
  const auto add_bridge = [&](bridge::BridgeNode& b) {
    const bridge::PlaneStats& p = b.plane().stats();
    c[kBridgeReceived] += p.received;
    c[kBridgeFlooded] += p.flooded;
    c[kBridgeDirected] += p.directed;
    if (const auto* learning = dynamic_cast<const bridge::LearningBridgeSwitchlet*>(
            b.node().loader().find("bridge.learning"))) {
      c[kLearnHits] += learning->stats().hits;
      c[kLearnFloods] += learning->stats().floods;
    }
  };

  double pending = 0;
  if (ctx.is_sharded()) {
    bridge::ShardedTopology& topo = *ctx.sharded;
    c[kEvents] = topo.events();
    c[kHeapInserts] = topo.heap_inserts();
    c[kScheduledEntries] = topo.scheduled_entries();
    c[kShardRounds] = ctx.runner->rounds();
    for (std::size_t l = 0; l < topo.lan_count(); ++l) {
      c[kFramesCarried] += topo.lan_stats(l).frames_carried;
    }
    for (const auto& region : topo.regions) {
      pending += static_cast<double>(region->net.scheduler().pending());
    }
    for (bridge::BridgeNode* b : topo.bridges) add_bridge(*b);
  } else {
    const netsim::Scheduler& sched = ctx.single_net->scheduler();
    c[kEvents] = sched.executed();
    c[kHeapInserts] = sched.inserts();
    c[kScheduledEntries] = sched.scheduled();
    pending = static_cast<double>(sched.pending());
    for (const netsim::LanSegment* lan : ctx.single_topo->shape.lans) {
      c[kFramesCarried] += lan->stats().frames_carried;
    }
    for (const auto& b : ctx.single_topo->bridges) add_bridge(*b);
  }
  for_each_lan(ctx, add_lan);
  for (std::size_t h = 0; h < ctx.host_count(); ++h) {
    const stack::HostStats& s = ctx.host(h).stats();
    c[kArpRequests] += s.arp_requests_sent;
    c[kArpReplies] += s.arp_replies_sent;
    c[kIpPackets] += s.ip_packets_sent;
    c[kUdpDelivered] += s.udp_delivered;
    c[kTcpDelivered] += s.tcp_delivered;
    c[kEchoAnswered] += s.echo_requests_answered;
    c[kEchoReplies] += s.echo_replies_received;
  }
  if (shape != nullptr) {
    shape->pending_events = pending;
    shape->stations_per_lan =
        static_cast<double>(nics) / static_cast<double>(std::max<std::size_t>(ctx.lan_count(), 1));
  }
  return c;
}

/// Cross-checks the workload's own tallies against the host stacks': echo
/// replies the stacks received vs pings the workload saw answered, and the
/// segments/datagrams the sink hosts' stacks delivered vs what the streams
/// counted. Returns "" when they agree.
std::string tally_mismatch(const apps::WorkloadContext& ctx, const apps::SweepResult& r,
                           const Counters& delta) {
  if (delta[kEchoReplies] != static_cast<std::uint64_t>(r.pings_answered)) {
    return format("tally: host stacks received %llu echo replies, workload counted %d",
                  static_cast<unsigned long long>(delta[kEchoReplies]),
                  r.pings_answered);
  }
  if (r.streams.empty()) return "";
  std::vector<std::string> sinks;
  std::uint64_t stream_datagrams = 0;
  for (const apps::StreamResult& s : r.streams) {
    const std::size_t arrow = s.label.find(" -> ");
    if (arrow == std::string::npos) return "tally: stream label without ' -> '";
    const std::string sink = s.label.substr(arrow + 4);
    if (std::find(sinks.begin(), sinks.end(), sink) == sinks.end()) sinks.push_back(sink);
    stream_datagrams += s.datagrams;
  }
  // No UDP or TCP moves before the traffic phase, so the sinks' absolute
  // counters are the run's.
  std::uint64_t delivered = 0;
  for (std::size_t h = 0; h < ctx.host_count(); ++h) {
    if (std::find(sinks.begin(), sinks.end(), ctx.host_attach(h).name) == sinks.end()) {
      continue;
    }
    const stack::HostStats& s = ctx.host(h).stats();
    delivered += s.udp_delivered + s.tcp_delivered;
  }
  if (delivered != stream_datagrams) {
    return format("tally: sink stacks delivered %llu segments/datagrams, streams counted %llu",
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(stream_datagrams));
  }
  return "";
}

/// The phase split, from outside the simulator: wraps the real workload
/// and timestamps its run(). Traced reps also snapshot the layer counters
/// around it -- before the entry stamp and after the exit stamp, so the
/// snapshot walks never land inside the measured traffic phase.
class PhaseProbe final : public apps::Workload {
 public:
  PhaseProbe(apps::Workload& inner, RepRecord& record)
      : inner_(inner), record_(record) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  void run(apps::WorkloadContext& ctx, apps::SweepResult& result) override {
    record_.t_snap_in = now_s();
    Counters before{};
    if (record_.traced) before = collect(ctx, &record_.shape);
    record_.t_enter = now_s();
    inner_.run(ctx, result);
    record_.t_exit = now_s();
    if (record_.traced) {
      const Counters after = collect(ctx, nullptr);
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        record_.layers[i] = after[i] - before[i];
      }
      for (const apps::StreamResult& s : result.streams) {
        record_.layers[kTcpRetransmits] += s.retransmits;
      }
      const std::string mismatch = tally_mismatch(ctx, result, record_.layers);
      if (!mismatch.empty()) set_text(record_.error, mismatch);
      record_.t_snap_out = now_s();
    } else {
      record_.t_snap_in = record_.t_enter;
      record_.t_snap_out = record_.t_exit;
    }
  }

 private:
  apps::Workload& inner_;
  RepRecord& record_;
};

/// One rep of one workload on input `input` of the run; runs inside the
/// forked child.
RepRecord run_rep(const WorkloadDef& w, std::uint64_t seed, std::size_t input, bool traced) {
  RepRecord rec;
  rec.input = input;
  rec.traced = traced;
  try {
    const std::uint64_t input_s = input_seed(seed, input);
    netsim::TopologySpec spec = w.spec;
    if (w.seed_shapes_topology) spec.seed = input_s;
    const std::unique_ptr<apps::Workload> traffic = w.traffic(input_s);
    PhaseProbe probe(*traffic, rec);
    apps::TopologySweep sweep(w.options);
    rec.t_call = now_s();
    const apps::SweepResult r = sweep.run_cell(spec, probe);
    rec.t_return = now_s();

    set_text(rec.cell, r.label);
    rec.build_s = r.build_ms / 1000.0;
    rec.bytes_per_station = r.bytes_per_station;
    if (r.streams.size() > kMaxStreams) throw std::runtime_error("too many streams");
    Observables& o = rec.obs;
    o.frames_carried = r.frames_carried;
    o.bytes_carried = r.bytes_carried;
    o.frames_lost = r.frames_lost;
    o.mac_entries = r.mac_entries;
    o.pings_sent = r.pings_sent;
    o.pings_answered = r.pings_answered;
    o.streams = r.streams.size();
    for (std::size_t s = 0; s < r.streams.size(); ++s) {
      o.stream_bytes_received[s] = r.streams[s].bytes_received;
      if (r.streams[s].bytes_sent == 0 ||
          r.streams[s].bytes_received < r.streams[s].bytes_sent) {
        ++rec.short_streams;
      }
    }
    o.stp_converged = r.stp_converged;
    o.virtual_seconds = r.virtual_seconds;
    if (traced) {
      rec.shape.table_per_bridge =
          static_cast<double>(r.mac_entries) / std::max(r.bridges, 1);
    }
  } catch (const std::exception& e) {
    set_text(rec.error, std::string("rep threw: ") + e.what());
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Layer probes: one public entry point per layer, timed in a bench loop at
// the workload's shape. Each reports the median of kTrials trials.

constexpr int kTrials = 5;
volatile std::uint64_t g_probe_sink = 0;  // keeps probe results observable

template <typename Trial>
double median_ns(Trial&& trial) {
  std::vector<double> ns;
  for (int t = 0; t < kTrials; ++t) ns.push_back(trial());
  return summarize(ns).median;
}

/// Scheduler churn at a fixed pending depth: every fired event schedules
/// one successor a pseudo-random delay ahead.
struct Churn {
  netsim::Scheduler scheduler;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;

  void arm() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    scheduler.schedule_after(
        netsim::nanoseconds(1 + static_cast<std::int64_t>(state % 1'000'000)),
        [this] { arm(); });
  }
};

double probe_scheduler(std::size_t depth) {
  Churn churn;
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) churn.arm();
  constexpr std::size_t kEvents = 200'000;
  return median_ns([&] {
    const double t0 = now_s();
    churn.scheduler.run(kEvents);
    return (now_s() - t0) * 1e9 / kEvents;
  });
}

/// One LAN segment carrying `stations` real HostStacks (arena-owned, as
/// build_topology makes them) plus a sending NIC.
struct LanRig {
  netsim::Network net;
  netsim::Arena arena;  // after net: its NICs and segment die first
  netsim::LanSegment* lan = nullptr;
  std::vector<stack::HostStack*> hosts;
  netsim::Nic* tx = nullptr;

  explicit LanRig(std::size_t stations) {
    lan = &net.add_segment(arena, "probe");
    for (std::size_t i = 0; i < stations; ++i) {
      netsim::Nic& nic = net.add_nic(arena, "st" + std::to_string(i), *lan);
      stack::HostConfig cfg;
      cfg.ip = bridge::topology_host_ip(i);
      hosts.push_back(arena.create<stack::HostStack>(net.scheduler(), nic, cfg));
    }
    tx = &net.add_nic(arena, "tx", *lan);
    tx->set_tx_queue_limit(1 << 20);
  }

  /// An ARP who-has from the sending NIC for an address nobody owns.
  [[nodiscard]] ether::WireFrame foreign_arp() const {
    const stack::ArpPacket arp = stack::ArpPacket::request(
        tx->mac(), bridge::topology_admin_ip(1), bridge::topology_admin_ip(2));
    return ether::Frame::ethernet2(ether::MacAddress::broadcast(), tx->mac(),
                                   ether::EtherType::kArp, arp.encode());
  }

  /// Sends copies of `frame` in bursts until about `visits` receiver
  /// visits have been made; returns ns per visit.
  double burst_ns(const ether::WireFrame& frame, std::size_t visits) {
    const std::size_t receivers = std::max<std::size_t>(hosts.size(), 1);
    const std::size_t per_burst = std::clamp<std::size_t>(visits / receivers, 16, 256);
    const std::size_t bursts = std::max<std::size_t>(visits / (per_burst * receivers), 1);
    std::vector<ether::WireFrame> burst(per_burst);
    const double t0 = now_s();
    for (std::size_t b = 0; b < bursts; ++b) {
      std::fill(burst.begin(), burst.end(), frame);
      tx->transmit_burst(burst);
      net.scheduler().run();
    }
    return (now_s() - t0) * 1e9 / static_cast<double>(bursts * per_burst * receivers);
  }
};

void probe_lan(std::size_t stations, ProbeRecord& p) {
  LanRig rig(std::max<std::size_t>(stations, 1));
  constexpr std::size_t kVisits = 2'000'000;
  const ether::WireFrame accept = rig.foreign_arp();
  // Unicast to an address no station owns: every receiver filters it.
  const ether::WireFrame filter = ether::Frame::ethernet2(
      ether::MacAddress::local(0xFFFF, 0xFFFF), rig.tx->mac(),
      ether::EtherType::kExperimental, {0});
  p.ns_per_accept = median_ns([&] { return rig.burst_ns(accept, kVisits); });
  p.ns_per_filter = median_ns([&] { return rig.burst_ns(filter, kVisits); });
}

double probe_foreign_arp() {
  LanRig rig(1);
  stack::HostStack& host = *rig.hosts.front();
  const ether::WireFrame who_has = rig.foreign_arp();
  constexpr std::size_t kDeliveries = 200'000;
  return median_ns([&] {
    const double t0 = now_s();
    for (std::size_t i = 0; i < kDeliveries; ++i) host.nic().deliver(who_has);
    return (now_s() - t0) * 1e9 / kDeliveries;
  });
}

/// MacTable learn (source) + lookup (destination) per frame, at the
/// workload's mean per-bridge table size.
double probe_learning(std::size_t table_size) {
  const std::size_t n = std::max<std::size_t>(table_size, 1);
  bridge::MacTable table;
  std::vector<ether::MacAddress> macs;
  for (std::size_t i = 0; i < n; ++i) {
    macs.push_back(ether::MacAddress::local(static_cast<std::uint32_t>(i >> 16) + 1,
                                            static_cast<std::uint16_t>(i & 0xFFFF)));
  }
  const netsim::TimePoint now = netsim::TimePoint{} + netsim::seconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    table.learn(macs[i], static_cast<ab::active::PortId>(i % 4), now);
  }
  constexpr std::size_t kFrames = 500'000;
  return median_ns([&] {
    std::uint64_t sink = 0;
    std::size_t src = 0;
    std::size_t dst = n / 2;
    const double t0 = now_s();
    for (std::size_t f = 0; f < kFrames; ++f) {
      table.learn(macs[src], static_cast<ab::active::PortId>(f % 4), now);
      if (const auto port = table.lookup(macs[dst], now)) sink += *port;
      src = src + 7 < n ? src + 7 : (src + 7) % n;
      dst = dst + 13 < n ? dst + 13 : (dst + 13) % n;
    }
    const double ns = (now_s() - t0) * 1e9 / kFrames;
    g_probe_sink = g_probe_sink + sink;
    return ns;
  });
}

ProbeRecord run_probes(const Shape& shape) {
  ProbeRecord p;
  try {
    const auto timed = [&](std::size_t i, const std::function<void()>& fn) {
      p.begin[i] = now_s();
      fn();
      p.end[i] = now_s();
    };
    timed(0, [&] {
      p.ns_per_event = probe_scheduler(static_cast<std::size_t>(shape.pending_events));
    });
    timed(1, [&] {
      probe_lan(static_cast<std::size_t>(std::lround(shape.stations_per_lan)), p);
    });
    timed(2, [&] {
      p.ns_per_frame = probe_learning(static_cast<std::size_t>(shape.table_per_bridge));
    });
    timed(3, [&] { p.ns_per_foreign_arp = probe_foreign_arp(); });
  } catch (const std::exception& e) {
    set_text(p.error, std::string("probe threw: ") + e.what());
  }
  return p;
}

// ---------------------------------------------------------------------------
// Fork-per-rep

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Runs `body` in a forked child and returns the record it produced, with
/// the child's own peak RSS (wait4 reports that child alone).
template <typename Record, typename Body>
Record in_child(Body&& body) {
  static_assert(std::is_trivially_copyable_v<Record>);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    const Record rec = body();
    const bool sent = write_all(fds[1], &rec, sizeof rec);
    ::close(fds[1]);
    ::_exit(sent ? 0 : 3);
  }
  ::close(fds[1]);
  Record rec;
  const bool got = read_all(fds[0], &rec, sizeof rec);
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rec = Record{};
    set_text(rec.error, format("child died (wait status %d)", status));
  }
  rec.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  return rec;
}

// ---------------------------------------------------------------------------
// Measurement passes

using Reps = std::map<std::string, std::vector<RepRecord>>;

struct Pass {
  double seconds = 0;            ///< wall budget per workload
  std::size_t min_reps = 1;      ///< per workload, whatever the budget
  std::size_t traced_every = 0;  ///< every n-th rep is traced (0: none)
  bool sweep_inputs = false;     ///< rep i runs input i % kInputsPerRun, else input 0
};

/// Round-robin over `ws`, one forked rep at a time, until each workload has
/// at least `pass.min_reps` reps and has spent `pass.seconds`. Traced reps
/// land in `traced`, the others in `plain`; alternating the two keeps
/// machine drift out of their ratio. Stops early on a failed rep.
void run_pass(const std::vector<const WorkloadDef*>& ws, std::uint64_t seed, const Pass& pass,
              Reps& plain, Reps& traced) {
  std::vector<double> spent(ws.size(), 0.0);
  std::vector<std::size_t> reps(ws.size(), 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (reps[i] >= pass.min_reps && spent[i] >= pass.seconds) continue;
      const bool trace = pass.traced_every > 0 && (reps[i] + 1) % pass.traced_every == 0;
      const std::size_t input = pass.sweep_inputs ? reps[i] % kInputsPerRun : 0;
      const double t0 = now_s();
      const RepRecord rec =
          in_child<RepRecord>([&] { return run_rep(*ws[i], seed, input, trace); });
      spent[i] += now_s() - t0;
      ++reps[i];
      std::fprintf(stderr,
                   "  %-12s rep %zu (input %zu%s): cell %.3f s  setup %.3f s  run %.3f s%s%s\n",
                   ws[i]->name.c_str(), reps[i], input, trace ? ", traced" : "", rec.cell_s(),
                   rec.setup_s(), rec.run_s(), rec.error[0] ? "  ERROR " : "", rec.error);
      (trace ? traced : plain)[ws[i]->name].push_back(rec);
      if (rec.error[0] != '\0') return;
      more = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  /// End-to-end: what it measures. Per-layer: the end-to-end metric and
  /// workload it should move.
  const char* note;
};

constexpr MetricDef kE2eMetrics[] = {
    {"cell_s", "s", "lower", "wall time of run_cell, build through teardown"},
    {"setup_s", "s", "lower", "build + STP convergence, before Workload::run"},
    {"run_s", "s", "lower", "wall time of Workload::run: the traffic phase"},
    {"peak_rss_mb", "MiB", "lower", "getrusage peak of the rep's child"},
};

double e2e_value(const RepRecord& r, std::string_view metric) {
  if (metric == "cell_s") return r.cell_s();
  if (metric == "setup_s") return r.setup_s();
  if (metric == "run_s") return r.run_s();
  return r.peak_rss_mb;
}

/// What a run reports for an end-to-end metric: the mean over its inputs
/// of each input's median rep. A median over all reps would weigh the
/// inputs by how many reps each fitted in the budget, and the inputs
/// differ in cost (one scale-free graph converges in twice the time of
/// another), so the value would move with the rep count.
double input_balanced(const std::vector<RepRecord>& reps, std::string_view metric) {
  std::map<std::size_t, std::vector<double>> by_input;
  for (const RepRecord& r : reps) by_input[r.input].push_back(e2e_value(r, metric));
  double sum = 0;
  for (const auto& [input, values] : by_input) sum += summarize(values).median;
  return by_input.empty() ? 0.0 : sum / static_cast<double>(by_input.size());
}

constexpr MetricDef kLayerMetrics[] = {
    {"netsim.scheduler.events", "count", "lower", "run_s on kreg-flood, tcp-hub"},
    {"netsim.scheduler.heap_inserts", "count", "lower", "run_s on kreg-flood, tcp-hub"},
    {"netsim.scheduler.scheduled_entries", "count", "lower", "run_s on kreg-flood, tcp-hub"},
    {"netsim.scheduler.events_per_run_s", "1/s", "higher", "run_s on kreg-flood, tcp-hub"},
    {"netsim.scheduler.ns_per_event", "ns", "lower", "run_s on kreg-flood, tcp-hub"},
    {"netsim.lan.frames_carried", "count", "lower", "run_s on star-agg*"},
    {"netsim.lan.rx_accepted", "count", "lower", "run_s on star-agg*"},
    {"netsim.lan.rx_filtered", "count", "lower", "run_s on star-agg*; not kreg-flood"},
    {"netsim.lan.visits_per_frame", "ratio", "lower", "run_s on star-agg*"},
    {"netsim.lan.useful_ratio", "ratio", "higher", "run_s on star-agg*"},
    {"netsim.lan.ns_per_accept", "ns", "lower", "run_s on star-agg*"},
    {"netsim.lan.ns_per_filter", "ns", "lower", "run_s on star-agg*"},
    {"netsim.nic.tx_frames", "count", "lower", "run_s on tcp-hub"},
    {"netsim.nic.tx_dropped", "count", "lower", "run_s on tcp-hub"},
    {"netsim.shard.rounds", "count", "lower", "run_s on star-agg-t4"},
    {"netsim.shard.rounds_per_sim_s", "1/sim_s", "lower", "run_s on star-agg-t4"},
    {"bridge.topology.build_s", "s", "lower", "setup_s on star-agg*"},
    {"bridge.topology.bytes_per_station", "B", "lower", "peak_rss_mb on star-agg*"},
    {"bridge.stp.converge_s", "s", "lower", "setup_s on star-agg*, kreg-flood"},
    {"bridge.forwarding.received", "count", "lower", "run_s on kreg-flood, tcp-hub"},
    {"bridge.forwarding.flooded", "count", "lower", "run_s on kreg-flood"},
    {"bridge.forwarding.directed", "count", "higher", "run_s on tcp-hub"},
    {"bridge.forwarding.directed_share", "ratio", "higher", "run_s on tcp-hub vs kreg-flood"},
    {"bridge.learning.hits", "count", "higher", "run_s on kreg-flood"},
    {"bridge.learning.floods", "count", "lower", "run_s on kreg-flood"},
    {"bridge.learning.hit_ratio", "ratio", "higher", "run_s on kreg-flood"},
    {"bridge.learning.mac_entries", "count", "lower", "run_s on kreg-flood"},
    {"bridge.learning.ns_per_frame", "ns", "lower", "run_s on kreg-flood"},
    {"stack.host.arp_requests_sent", "count", "lower", "run_s on star-agg*"},
    {"stack.host.arp_replies_sent", "count", "lower", "run_s on star-agg*"},
    {"stack.host.ip_packets_sent", "count", "lower", "run_s on tcp-hub"},
    {"stack.host.udp_delivered", "count", "higher", "run_s on star-agg*"},
    {"stack.host.tcp_delivered", "count", "higher", "run_s on tcp-hub"},
    {"stack.host.echo_requests_answered", "count", "higher", "run_s on kreg-flood, star-agg*"},
    {"stack.host.echo_replies_received", "count", "higher", "run_s on kreg-flood, star-agg*"},
    {"stack.host.ns_per_foreign_arp", "ns", "lower", "run_s on star-agg*"},
    {"stack.tcp.retransmits", "count", "lower", "run_s on tcp-hub"},
    {"apps.cell.teardown_s", "s", "lower", "cell_s on star-agg*"},
    {"attrib.coverage", "ratio", "higher", "share of run_s the probes explain"},
    {"trace_overhead", "ratio", "lower", "traced cell_s / untraced cell_s"},
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median_of(const std::vector<RepRecord>& reps, double (RepRecord::*field)() const) {
  std::vector<double> v;
  for (const RepRecord& r : reps) v.push_back((r.*field)());
  return summarize(v).median;
}

/// Every kLayerMetrics value for one workload: counters from the traced
/// reps (identical across them -- checked), phase times from the untraced
/// reps, which carry no snapshot walks. Traced reps all run input 0, so
/// only the untraced reps of input 0 are compared with them.
std::map<std::string, double> layer_values(const WorkloadDef& w,
                                           const std::vector<RepRecord>& all_plain,
                                           const std::vector<RepRecord>& traced,
                                           const ProbeRecord& probe) {
  std::vector<RepRecord> plain;
  std::copy_if(all_plain.begin(), all_plain.end(), std::back_inserter(plain),
               [](const RepRecord& r) { return r.input == 0; });
  std::map<std::string, double> v;
  const Counters& c = traced.front().layers;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    v[kCounterNames[i]] = static_cast<double>(c[i]);
  }
  // The snapshots sit outside Workload::run, so every rep of input 0 times
  // the same traffic phase.
  std::vector<RepRecord> input0 = plain;
  input0.insert(input0.end(), traced.begin(), traced.end());
  const double run_s = median_of(input0, &RepRecord::run_s);
  const double visits = static_cast<double>(c[kRxAccepted] + c[kRxFiltered]);
  const double sim_run_s = netsim::to_seconds(w.options.traffic_window);

  v["netsim.scheduler.events_per_run_s"] = ratio(static_cast<double>(c[kEvents]), run_s);
  v["netsim.scheduler.ns_per_event"] = probe.ns_per_event;
  v["netsim.lan.visits_per_frame"] = ratio(visits, static_cast<double>(c[kFramesCarried]));
  v["netsim.lan.useful_ratio"] = ratio(static_cast<double>(c[kRxAccepted]), visits);
  v["netsim.lan.ns_per_accept"] = probe.ns_per_accept;
  v["netsim.lan.ns_per_filter"] = probe.ns_per_filter;
  v["netsim.shard.rounds_per_sim_s"] = ratio(static_cast<double>(c[kShardRounds]), sim_run_s);

  std::vector<double> build_s;
  std::vector<double> bytes_per_station;
  for (const RepRecord& r : plain) {
    build_s.push_back(r.build_s);
    bytes_per_station.push_back(r.bytes_per_station);
  }
  v["bridge.topology.build_s"] = summarize(build_s).median;
  v["bridge.topology.bytes_per_station"] = summarize(bytes_per_station).median;
  v["bridge.stp.converge_s"] = median_of(plain, &RepRecord::converge_s);
  v["bridge.forwarding.directed_share"] =
      ratio(static_cast<double>(c[kBridgeDirected]),
            static_cast<double>(c[kBridgeDirected] + c[kBridgeFlooded]));
  v["bridge.learning.hit_ratio"] = ratio(static_cast<double>(c[kLearnHits]),
                                         static_cast<double>(c[kLearnHits] + c[kLearnFloods]));
  v["bridge.learning.mac_entries"] = static_cast<double>(traced.front().obs.mac_entries);
  v["bridge.learning.ns_per_frame"] = probe.ns_per_frame;
  v["stack.host.ns_per_foreign_arp"] = probe.ns_per_foreign_arp;
  v["apps.cell.teardown_s"] = median_of(plain, &RepRecord::teardown_s);

  // The outside-in cost model: each counted unit of work at its probed
  // price, against the traffic phase it happened in.
  const double modeled_ns =
      static_cast<double>(c[kEvents]) * probe.ns_per_event +
      static_cast<double>(c[kRxAccepted]) * probe.ns_per_accept +
      static_cast<double>(c[kRxFiltered]) * probe.ns_per_filter +
      static_cast<double>(c[kBridgeReceived]) * probe.ns_per_frame;
  v["attrib.coverage"] = ratio(modeled_ns, run_s * 1e9);
  v["trace_overhead"] = ratio(median_of(traced, &RepRecord::cell_s),
                              median_of(plain, &RepRecord::cell_s));
  return v;
}

// ---------------------------------------------------------------------------
// Correctness gate

std::string observables_json(const Observables& o) {
  std::string s = format(
      "{\"frames_carried\": %llu, \"bytes_carried\": %llu, \"frames_lost\": %llu, "
      "\"mac_entries\": %llu, \"pings_sent\": %lld, \"pings_answered\": %lld, "
      "\"stream_bytes_received\": [",
      static_cast<unsigned long long>(o.frames_carried),
      static_cast<unsigned long long>(o.bytes_carried),
      static_cast<unsigned long long>(o.frames_lost),
      static_cast<unsigned long long>(o.mac_entries), static_cast<long long>(o.pings_sent),
      static_cast<long long>(o.pings_answered));
  for (std::size_t i = 0; i < o.streams; ++i) {
    s += format("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(o.stream_bytes_received[i]));
  }
  return s + format("], \"stp_converged\": %s, \"virtual_seconds\": %s}",
                    o.stp_converged ? "true" : "false",
                    json_number(o.virtual_seconds).c_str());
}

Observables observables_from(const Json& j) {
  const auto num = [&](const char* key) {
    const Json* v = j.get(key);
    if (v == nullptr || v->kind != Json::Kind::kNumber) {
      throw std::runtime_error(std::string("expected.json: missing number ") + key);
    }
    return v->number;
  };
  Observables o;
  o.frames_carried = static_cast<std::uint64_t>(num("frames_carried"));
  o.bytes_carried = static_cast<std::uint64_t>(num("bytes_carried"));
  o.frames_lost = static_cast<std::uint64_t>(num("frames_lost"));
  o.mac_entries = static_cast<std::uint64_t>(num("mac_entries"));
  o.pings_sent = static_cast<std::int64_t>(num("pings_sent"));
  o.pings_answered = static_cast<std::int64_t>(num("pings_answered"));
  const Json* streams = j.get("stream_bytes_received");
  if (streams == nullptr || streams->kind != Json::Kind::kArray ||
      streams->items.size() > kMaxStreams) {
    throw std::runtime_error("expected.json: bad stream_bytes_received");
  }
  o.streams = streams->items.size();
  for (std::size_t i = 0; i < o.streams; ++i) {
    o.stream_bytes_received[i] = static_cast<std::uint64_t>(streams->items[i].number);
  }
  const Json* converged = j.get("stp_converged");
  o.stp_converged = converged != nullptr && converged->boolean;
  o.virtual_seconds = num("virtual_seconds");
  return o;
}

/// Pinned observables per workload, indexed by input.
using Pins = std::map<std::string, std::vector<Observables>>;

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return JsonReader(path, text.str()).document();
}

/// The pins of expected.json, when they apply to this seed (else empty).
Pins load_pins(std::uint64_t seed) {
  const Json doc = read_json(AB_BENCH_EXPECTED);
  const Json* pin_seed = doc.get("seed");
  const Json* workloads = doc.get("workloads");
  if (pin_seed == nullptr || workloads == nullptr) {
    throw std::runtime_error("expected.json: needs \"seed\" and \"workloads\"");
  }
  Pins pins;
  if (static_cast<std::uint64_t>(pin_seed->number) != seed) return pins;
  for (const auto& [name, inputs] : workloads->members) {
    for (const Json& obs : inputs.items) pins[name].push_back(observables_from(obs));
  }
  return pins;
}

/// --smoke: the metric tables above must list the same metrics, in the same
/// order, with the same units and directions as BENCHMARK.json.
std::vector<std::string> check_metric_tables() {
  std::vector<std::string> errors;
  const Json doc = read_json(AB_BENCH_CONFIG);
  const auto compare = [&](const char* key, std::span<const MetricDef> table) {
    const Json* list = doc.get(key);
    if (list == nullptr || list->items.size() != table.size()) {
      errors.push_back(format("BENCHMARK.json: %s should list %zu metrics", key, table.size()));
      return;
    }
    for (std::size_t i = 0; i < table.size(); ++i) {
      const Json& m = list->items[i];
      const auto is = [&](const char* field, const char* want) {
        const Json* v = m.get(field);
        return v != nullptr && v->string == want;
      };
      if (!is("name", table[i].name) || !is("unit", table[i].unit) ||
          !is("better", table[i].better)) {
        errors.push_back(format("BENCHMARK.json: %s[%zu] should be %s (%s, %s)", key, i,
                                table[i].name, table[i].unit, table[i].better));
      }
    }
  };
  compare("end_to_end", kE2eMetrics);
  compare("per_layer", kLayerMetrics);
  return errors;
}

/// Observables of each input's first rep, by input.
std::map<std::size_t, Observables> first_per_input(const std::vector<RepRecord>& reps) {
  std::map<std::size_t, Observables> first;
  for (const RepRecord& r : reps) first.emplace(r.input, r.obs);
  return first;
}

/// Every check the gate makes on a finished invocation; returns the
/// failures (empty when all held).
std::vector<std::string> check(const std::vector<const WorkloadDef*>& ws, const Reps& plain,
                               const Reps& traced, const Reps& oracle, const Pins& pins) {
  std::vector<std::string> errors;
  const auto reps_of = [](const Reps& pass, const std::string& name) {
    const auto it = pass.find(name);
    return it == pass.end() ? std::vector<RepRecord>{} : it->second;
  };
  for (const WorkloadDef* w : ws) {
    std::vector<RepRecord> reps = reps_of(plain, w->name);
    const std::vector<RepRecord> traced_reps = reps_of(traced, w->name);
    reps.insert(reps.end(), traced_reps.begin(), traced_reps.end());
    if (reps.empty()) {
      errors.push_back(w->name + ": no reps ran");
      continue;
    }
    const std::map<std::size_t, Observables> first = first_per_input(reps);
    for (const RepRecord& r : reps) {
      if (r.error[0] != '\0') errors.push_back(w->name + ": " + r.error);
      const double phases = r.build_s + r.converge_s() + (r.t_enter - r.t_snap_in) +
                            r.run_s() + (r.t_snap_out - r.t_exit) + r.teardown_s();
      if (r.build_s < 0 || r.converge_s() < 0 || r.teardown_s() < 0 ||
          std::abs(phases - r.cell_s()) > 1e-3) {
        errors.push_back(w->name + ": phase spans do not sum to the cell span");
      }
      if (!(r.obs == first.at(r.input))) {
        errors.push_back(format("%s: reps of input %zu disagree: ", w->name.c_str(), r.input) +
                         observables_json(r.obs) + " vs " +
                         observables_json(first.at(r.input)));
      }
    }
    for (const RepRecord& r : traced_reps) {
      if (r.layers != traced_reps.front().layers) {
        errors.push_back(w->name + ": layer counters differ between traced reps");
      }
    }
    if (!w->oracle.empty()) {
      const std::map<std::size_t, Observables> expected =
          first_per_input(reps_of(plain.count(w->oracle) ? plain : oracle, w->oracle));
      for (const auto& [input, obs] : first) {
        const auto it = expected.find(input);
        if (it == expected.end()) {
          errors.push_back(format("%s: oracle %s did not run input %zu", w->name.c_str(),
                                  w->oracle.c_str(), input));
        } else if (!(it->second == obs)) {
          errors.push_back(format("%s diverges from %s on input %zu: ", w->name.c_str(),
                                  w->oracle.c_str(), input) +
                           observables_json(obs) + " vs " + observables_json(it->second));
        }
      }
    }
    if (const auto pin = pins.find(w->name); pin != pins.end()) {
      for (const auto& [input, obs] : first) {
        if (input >= pin->second.size() || !(pin->second[input] == obs)) {
          errors.push_back(
              format("%s input %zu does not match expected.json: ", w->name.c_str(), input) +
              observables_json(obs));
        }
      }
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Fingerprint and trace output

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t:", line.find(':'));
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

std::string fingerprint_json() {
  const char* head = std::getenv("AB_BENCH_GIT_HEAD");
  return format("{\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
                "\"git_head\": %s}",
                std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
                json_string(AB_BENCH_COMPILER).c_str(),
                json_string(AB_BENCH_BUILD_TYPE).c_str(),
                json_string(head != nullptr ? head : "unknown").c_str());
}

/// Chrome trace-event JSON (Perfetto / chrome://tracing): one process
/// track per rep, a `cell` span with its phase children, and the probes.
class TraceWriter {
 public:
  void rep(const std::string& workload, const RepRecord& r) {
    const int pid = next_pid_++;
    meta(pid, workload + (r.traced ? " traced rep" : " rep"));
    const int cell = span(pid, "cell", r.t_call, r.t_return, 0);
    span(pid, "bridge.topology.build", r.t_call, r.t_call + r.build_s, cell);
    span(pid, "bridge.stp.converge", r.t_call + r.build_s, r.t_snap_in, cell);
    span(pid, "trace.counters", r.t_snap_in, r.t_enter, cell);
    span(pid, "apps.workload.run", r.t_enter, r.t_exit, cell);
    span(pid, "trace.counters", r.t_exit, r.t_snap_out, cell);
    span(pid, "teardown", r.t_snap_out, r.t_return, cell);
  }

  void probes(const std::string& workload, const ProbeRecord& p) {
    const int pid = next_pid_++;
    meta(pid, workload + " probes");
    for (std::size_t i = 0; i < kProbeNames.size(); ++i) {
      span(pid, kProbeNames[i], p.begin[i], p.end[i], 0);
    }
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < events_.size(); ++i) {
      std::fprintf(f, "%s%s\n", events_[i].c_str(), i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  void meta(int pid, const std::string& name) {
    events_.push_back(format("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                             "\"args\": {\"name\": %s}}",
                             pid, json_string(name).c_str()));
  }
  int span(int pid, const char* name, double begin, double end, int parent) {
    if (end <= begin && parent != 0) return 0;  // empty child (untraced snapshot)
    if (origin_ < 0) origin_ = begin;
    const int id = ++next_id_;
    events_.push_back(format("{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                             "\"pid\": %d, \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d}}",
                             name, (begin - origin_) * 1e6, (end - begin) * 1e6, pid, id,
                             parent));
    return id;
  }

  std::vector<std::string> events_;
  double origin_ = -1;
  int next_pid_ = 1;
  int next_id_ = 0;
};

// ---------------------------------------------------------------------------
// main

struct Args {
  std::string workload = "all";
  std::uint64_t seed = 7;
  double seconds = 30;  ///< BENCHMARK.json's run_seconds
  int trace = 0;
  std::string out;
  std::string trace_out;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ab_bench: %s\n"
               "usage: ab_bench [--workload NAME|all] [--seed N] [--seconds S] "
               "[--trace 0|1] [--out FILE] [--trace-out FILE] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds >= 0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

std::string metric_json(double value, const char* unit) {
  return format("{\"value\": %s, \"unit\": %s}", json_number(value).c_str(),
                json_string(unit).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.smoke && std::string_view(AB_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "ab_bench: refusing to record numbers from a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release (bench/e2e/run.sh does)\n",
                 AB_BENCH_BUILD_TYPE);
    return 2;
  }

  const std::vector<WorkloadDef> defs = make_workloads(args.smoke);
  const auto find_def = [&](const std::string& name) -> const WorkloadDef* {
    for (const WorkloadDef& w : defs) {
      if (w.name == name) return &w;
    }
    return nullptr;
  };
  const bool all = args.workload == "all" || args.smoke;
  std::vector<const WorkloadDef*> ws;
  if (all) {
    for (const WorkloadDef& w : defs) ws.push_back(&w);
  } else if (const WorkloadDef* w = find_def(args.workload)) {
    ws.push_back(w);
  } else {
    std::string names;
    for (const WorkloadDef& d : defs) names += " " + d.name;
    usage("unknown workload " + args.workload + " (have:" + names + ")");
  }
  // Single-workload runs report one metric set; `all` and --smoke run the
  // untraced and the traced pass and report both.
  const bool report_e2e = all || args.trace == 0;
  const bool report_layers = all || args.trace == 1;
  const double seconds = args.smoke ? 0 : args.seconds;

  std::vector<std::string> errors;
  Pins pins;
  try {
    if (args.smoke) {
      errors = check_metric_tables();
    } else {
      pins = load_pins(args.seed);
    }
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }

  Reps plain;
  Reps traced;
  Reps unreported;
  std::fprintf(stderr, "ab_bench: seed %llu, %.0f s per workload and pass\n",
               static_cast<unsigned long long>(args.seed), seconds);
  // One unreported warm-up rep per workload: the first cell after a quiet
  // spell runs up to 1.5x slower (cold caches, idle CPU), a cost a sweep
  // pays once, not per cell. An oracle that is not itself being measured
  // also runs unreported, once per input, so the equality check holds in
  // single-workload runs too.
  if (!args.smoke) run_pass(ws, args.seed, Pass{}, unreported, unreported);
  for (const WorkloadDef* w : ws) {
    if (!w->oracle.empty() && !all) {
      run_pass({find_def(w->oracle)}, args.seed,
               Pass{0, report_e2e ? kInputsPerRun : 1, 0, report_e2e}, unreported, unreported);
    }
  }
  // The untraced pass sweeps the run's inputs. `all` then adds one traced
  // rep per workload; a single-workload traced run alternates untraced and
  // traced reps, which trace_overhead compares. Traced passes stay on
  // input 0 so their counters repeat exactly.
  if (report_e2e) run_pass(ws, args.seed, Pass{seconds, kInputsPerRun, 0, true}, plain, traced);
  std::map<std::string, ProbeRecord> probes;
  if (report_layers) {
    run_pass(ws, args.seed, all ? Pass{0, 1, 1, false} : Pass{seconds, 4, 2, false}, plain,
             traced);
    for (const WorkloadDef* w : ws) {
      const auto it = traced.find(w->name);
      if (it == traced.end() || it->second.front().error[0] != '\0') continue;
      const Shape shape = it->second.front().shape;
      const ProbeRecord p = in_child<ProbeRecord>([&] { return run_probes(shape); });
      if (p.error[0] != '\0') errors.push_back(w->name + ": " + p.error);
      probes[w->name] = p;
    }
  }

  const std::vector<std::string> failures = check(ws, plain, traced, unreported, pins);
  errors.insert(errors.end(), failures.begin(), failures.end());

  // ---- attempted / failed operations: pings, streams and cells ----
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Reps* pass : {&plain, &traced}) {
    for (const auto& [name, reps] : *pass) {
      for (const RepRecord& r : reps) {
        attempted += static_cast<std::uint64_t>(r.obs.pings_sent) + r.obs.streams + 1;
        failed += static_cast<std::uint64_t>(r.obs.pings_sent - r.obs.pings_answered) +
                  r.short_streams + (r.obs.stp_converged ? 0 : 1);
      }
    }
  }

  // ---- report ----
  const std::string fingerprint = fingerprint_json();
  std::printf("ab_bench  seed %llu  fingerprint %s\n",
              static_cast<unsigned long long>(args.seed), fingerprint.c_str());
  std::string out_workloads;
  std::string last_metrics;
  TraceWriter trace;
  for (const WorkloadDef* w : ws) {
    const std::vector<RepRecord>& p = plain[w->name];
    const std::vector<RepRecord>& t = traced[w->name];
    for (const RepRecord& r : p) trace.rep(w->name, r);
    for (const RepRecord& r : t) trace.rep(w->name, r);
    const RepRecord* any = !p.empty() ? &p.front() : !t.empty() ? &t.front() : nullptr;
    std::printf("\n== %s  (input 0: %s)  %zu untraced + %zu traced reps\n", w->name.c_str(),
                any != nullptr ? any->cell : "?", p.size(), t.size());
    std::string e2e_json;
    if (report_e2e && !p.empty()) {
      for (const MetricDef& m : kE2eMetrics) {
        std::vector<double> v;
        for (const RepRecord& r : p) v.push_back(e2e_value(r, m.name));
        const Summary s = summarize(v);
        const double value = input_balanced(p, m.name);
        std::printf("  %-14s %12.4f %-5s median %.4f  q1 %.4f  q3 %.4f  min %.4f  max %.4f  "
                    "n %zu  (%s)\n",
                    m.name, value, m.unit, s.median, s.q1, s.q3, s.min, s.max, s.n, m.note);
        e2e_json += format("%s\"%s\": {\"unit\": \"%s\", \"value\": %s, \"median\": %s, "
                           "\"q1\": %s, \"q3\": %s, \"min\": %s, \"max\": %s, \"n\": %zu}",
                           e2e_json.empty() ? "" : ", ", m.name, m.unit,
                           json_number(value).c_str(), json_number(s.median).c_str(),
                           json_number(s.q1).c_str(), json_number(s.q3).c_str(),
                           json_number(s.min).c_str(), json_number(s.max).c_str(), s.n);
        last_metrics += format("%s\"%s%s\": %s", last_metrics.empty() ? "" : ", ",
                               all ? (w->name + ".").c_str() : "", m.name,
                               metric_json(value, m.unit).c_str());
      }
    }
    std::string layers_json;
    if (report_layers && !t.empty() && !p.empty() && probes.count(w->name)) {
      trace.probes(w->name, probes[w->name]);
      const std::map<std::string, double> values =
          layer_values(*w, p, t, probes[w->name]);
      std::printf("  -- layers (traced pass)\n");
      for (const MetricDef& m : kLayerMetrics) {
        const double value = values.at(m.name);
        std::printf("  %-36s %16.4f %-7s moves %s\n", m.name, value, m.unit, m.note);
        layers_json += format("%s\"%s\": %s", layers_json.empty() ? "" : ", ", m.name,
                              metric_json(value, m.unit).c_str());
        last_metrics += format("%s\"%s%s\": %s", last_metrics.empty() ? "" : ", ",
                               all ? (w->name + ".").c_str() : "", m.name,
                               metric_json(value, m.unit).c_str());
      }
    }
    // Observables by input, in expected.json's shape: pinning is copying.
    std::vector<RepRecord> reps = p;
    reps.insert(reps.end(), t.begin(), t.end());
    std::string observables;
    for (const auto& [input, obs] : first_per_input(reps)) {
      observables += (observables.empty() ? "\n      " : ",\n      ") + observables_json(obs);
    }
    out_workloads += format("%s\n    %s: {\"cell\": %s, ", out_workloads.empty() ? "" : ",",
                            json_string(w->name).c_str(),
                            json_string(any != nullptr ? any->cell : "").c_str()) +
                     "\"e2e\": {" + e2e_json + "}, \"layers\": {" + layers_json +
                     "}, \"observables\": [" + observables + "]}";
  }

  // The sharded workload's thread speedup, from the two e2e values.
  if (report_e2e && !plain["star-agg"].empty() && !plain["star-agg-t4"].empty()) {
    std::printf("\nspeedup star-agg run_s / star-agg-t4 run_s: %.3f\n",
                ratio(input_balanced(plain["star-agg"], "run_s"),
                      input_balanced(plain["star-agg-t4"], "run_s")));
  }
  std::printf("\nfailed ops %llu / %llu attempted (unanswered pings + short streams + "
              "unconverged cells)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& e : errors) std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());
  const bool correct = errors.empty();
  std::printf("correctness gate: %s\n", correct ? "passed" : "FAILED");

  std::string errors_json;
  for (const std::string& e : errors) {
    errors_json += (errors_json.empty() ? "" : ", ") + json_string(e);
  }
  if (!args.out.empty()) {
    std::FILE* f = std::fopen(args.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ab_bench: cannot write %s\n", args.out.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"fingerprint\": %s,\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
                 "  \"smoke\": %s,\n  \"correct\": %s,\n  \"attempted\": %llu,\n"
                 "  \"failed\": %llu,\n  \"errors\": [%s],\n  \"workloads\": {%s\n  }\n}\n",
                 fingerprint.c_str(), static_cast<unsigned long long>(args.seed),
                 json_number(seconds).c_str(), args.smoke ? "true" : "false",
                 correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), errors_json.c_str(),
                 out_workloads.c_str());
    std::fclose(f);
  }
  if (!args.trace_out.empty()) trace.write(args.trace_out);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), last_metrics.c_str());
  return correct ? 0 : 1;
}
