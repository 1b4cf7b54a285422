// ScenarioRunner: drive a whole simulation from a small text description --
// the front door for a user who wants to try topologies without writing
// C++. Used by the `scenario_sim` example and the scenario tests.
//
// TopologySweep (below) is the batch counterpart: build each TopologySpec
// of a grid as a fresh sharded cell (per-region Networks under a
// ParallelRunner; one region on one inline scheduler by default), wait out
// STP convergence, then hand the running extended LAN to a pluggable
// Workload and collect per-cell stats -- events/sec, wall time,
// convergence, table sizes, plus whatever the workload measured -- for
// benches and capacity planning.
//
// Three workloads ship here:
//   * FloodPingWorkload  -- broadcast burst + neighbor pings (learning);
//   * TtcpStreamWorkload -- K concurrent ttcp sender/sink pairs placed
//     across LANs, per-stream goodput and loss (the paper's fig. 10
//     traffic, scaled out);
//   * RolloutWorkload    -- the paper's section 5.2 staged deployment: an
//     admin host TFTPs a new switchlet generation to every bridge's
//     network loader, nearest stage first, mid-traffic, measuring
//     per-bridge load time and old- vs new-code frame counts.
//
// How to add a workload:
//
//   class JitterWorkload final : public Workload {
//    public:
//     std::string_view name() const override { return "jitter"; }
//     void run(WorkloadContext& ctx, SweepResult& r) override {
//       // 1. place apps on ctx.host(i) (schedule per-host work on
//       //    ctx.host(i).scheduler() -- each region has its own clock);
//       // 2. drive traffic: ctx.advance(ctx.options.traffic_window);
//       // 3. record what you measured into `r` (reuse streams/rollout or
//       //    the core counters).
//     }
//   };
//   ...
//   JitterWorkload jitter;
//   auto cells = TopologySweep(opts).run_grid(grid, jitter);
//
// The sweep owns topology construction, convergence, and the cost
// accounting; the workload owns everything that happens on the wire during
// the traffic window.
//
// Grammar (one directive per line; '#' starts a comment):
//
//   segment <name> [rate=<bits/s>] [loss=<probability>]
//   bridge  <name> <segment> <segment> [cost=ideal|repeater|caml]
//           [modules=dumb,learning,ieee|dec|multitree,monitor]
//   host    <name> <segment> <dotted-quad-ip>
//   pcap    <segment> <file-path>
//   ping    <src-host> <dst-host> [count=N] [size=BYTES] [interval_ms=MS] [at=SEC]
//   ttcp    <src-host> <dst-host> [bytes=N[K|M]] [write=BYTES] [at=SEC]
//   run     <seconds>
//
// Measurements are scheduled at their `at=` time; `run` advances virtual
// time; the final report summarizes every measurement and bridge.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/apps/ping.h"
#include "src/apps/ttcp.h"
#include "src/bridge/bridge_node.h"
#include "src/bridge/sharded_topology.h"
#include "src/bridge/topology.h"
#include "src/netsim/network.h"
#include "src/netsim/parallel_runner.h"
#include "src/netsim/pcap.h"
#include "src/stack/host_stack.h"
#include "src/util/result.h"

namespace ab::apps {

class ScenarioRunner {
 public:
  ScenarioRunner() = default;

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Parses and executes a scenario. Returns the textual report, or a
  /// parse/semantic error naming the offending line.
  [[nodiscard]] util::Expected<std::string, std::string> run_text(
      const std::string& config);

  // ---- inspection (tests) ----
  [[nodiscard]] netsim::Network& network() { return net_; }
  [[nodiscard]] stack::HostStack* find_host(const std::string& name);
  [[nodiscard]] bridge::BridgeNode* find_bridge(const std::string& name);

 private:
  struct NamedHost {
    std::string name;
    std::unique_ptr<stack::HostStack> stack;
  };
  struct NamedBridge {
    std::string name;
    std::unique_ptr<bridge::BridgeNode> node;
  };
  struct PingJob {
    std::string label;
    std::unique_ptr<PingApp> app;
  };
  struct TtcpJob {
    std::string label;
    std::size_t total_bytes = 0;
    std::unique_ptr<TtcpSink> sink;
    std::unique_ptr<TtcpSender> sender;
  };

  [[nodiscard]] util::Expected<bool, std::string> execute_line(
      const std::string& line, int line_number);

  netsim::Network net_;
  std::vector<NamedHost> hosts_;
  std::vector<NamedBridge> bridges_;
  std::vector<PingJob> pings_;
  std::vector<TtcpJob> ttcps_;
  std::vector<std::unique_ptr<netsim::PcapWriter>> pcaps_;
  std::uint16_t next_ttcp_port_ = 5001;
};

// ---------------------------------------------------------------------------
// Topology sweeps

/// One ttcp stream's outcome inside a sweep cell.
struct StreamResult {
  std::string label;              ///< "host3_0 -> host9_1"
  /// Payload bytes the sender issued. For unpaced TCP, the bytes written
  /// into the socket so far -- the sender writes as the window opens, so
  /// this equals bytes_per_stream only once the stream is fully written; a
  /// stream cut off by the traffic window still reads bytes_received <
  /// bytes_sent (the written-but-unacked bytes sit in the send buffer).
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0; ///< payload bytes the sink completed
  /// UDP: datagrams the sink reassembled. TCP: segments the sink's
  /// connection received.
  std::size_t datagrams = 0;
  double goodput_mbps = 0.0;      ///< sink goodput, first to last byte
  double loss_fraction = 0.0;     ///< 1 - received/sent
  std::uint64_t retransmits = 0;  ///< TCP only: sender retransmissions
  std::uint64_t cwnd_final = 0;   ///< TCP only: sender cwnd at cell end
};

/// One bridge's outcome in a staged switchlet rollout.
struct RolloutStepResult {
  std::string bridge;        ///< node name ("bridge3")
  int stage = 0;             ///< BFS distance from the admin's LAN
  bool ok = false;           ///< the image loaded and started
  int attempts = 0;          ///< TFTP attempts the deployer needed
  double load_ms = 0.0;      ///< request leaving admin -> switchlet running
  /// Frames the bridge's plane had received when the new generation
  /// started (work done by the old code)...
  std::uint64_t frames_before_load = 0;
  /// ...and frames the new generation itself processed after. The two sum
  /// to the plane's received count at cell end. Both stay 0 on a bridge
  /// the new generation never reached.
  std::uint64_t frames_after_load = 0;
  std::uint64_t bytes_pushed = 0;  ///< image bytes the loader received
};

/// One measured cell of a topology sweep.
struct SweepResult {
  netsim::TopologySpec spec;
  std::string label;
  std::string workload;  ///< name() of the workload that drove the cell

  // topology size
  int bridges = 0;
  int lans = 0;
  int hosts = 0;
  int ports = 0;

  // spanning-tree outcome
  bool stp_converged = false;
  int blocked_ports = 0;
  int forwarding_ports = 0;

  // workload outcome (core counters every workload shares)
  std::uint64_t frames_carried = 0;
  std::uint64_t bytes_carried = 0;
  std::uint64_t frames_lost = 0;
  /// Nic::deliver calls the segments made (LanStats::receivers_visited):
  /// over frames_carried, the receivers a frame costs.
  std::uint64_t receivers_visited = 0;
  std::size_t mac_entries = 0;
  int pings_sent = 0;
  int pings_answered = 0;

  // workload outcome (per-workload detail; empty unless that workload ran)
  std::vector<StreamResult> streams;        ///< TtcpStreamWorkload
  std::vector<RolloutStepResult> rollout;   ///< RolloutWorkload

  // cost
  std::uint64_t events = 0;      ///< scheduler events executed for the cell
  /// Scheduler heap inserts the cell performed, against what the same
  /// event program costs when every entry is its own insert
  /// (scheduled_entries): their ratio is the transmit-path batching win.
  std::uint64_t heap_inserts = 0;
  std::uint64_t scheduled_entries = 0;
  double virtual_seconds = 0.0;  ///< simulated time elapsed
  double wall_seconds = 0.0;     ///< real time the cell took
  double events_per_sec = 0.0;   ///< events / wall_seconds

  // station-scale cost (the million-station cell's acceptance columns)
  double build_ms = 0.0;              ///< topology build wall time
  std::uint64_t peak_rss_bytes = 0;   ///< process peak RSS at cell end
  /// Resident-set growth across the topology build divided by the station
  /// count -- the marginal memory an idle station costs (0 when the
  /// platform exposes no RSS, or when reclaimed pages hide the delta).
  double bytes_per_station = 0.0;

  /// Sum of per-stream goodputs (0 when no streams ran).
  [[nodiscard]] double total_goodput_mbps() const;
  /// scheduled_entries / heap_inserts -- how many entries the average
  /// insert carried (1.0 with nothing batched; 0 when nothing ran).
  [[nodiscard]] double insert_reduction() const;
  /// True when every rollout step loaded OK (false when none ran).
  [[nodiscard]] bool rollout_ok() const;
};

/// Knobs shared by every cell of a sweep.
struct SweepOptions {
  /// Simulated settle time before traffic (2 x forward delay + margin when
  /// STP is on).
  netsim::Duration convergence_window = netsim::seconds(45);
  /// Simulated time the workload runs.
  netsim::Duration traffic_window = netsim::seconds(5);
  /// Broadcast frames injected on lan0 after convergence (flood workload).
  int probe_broadcasts = 10;
  /// Every host pings its successor host (learning + directed workload).
  bool neighbor_pings = true;
  /// Worker threads driving the cell's regions (1, the default, runs them
  /// inline on the caller).
  int threads = 1;
  /// Regions the cell is built as: 0 builds one per thread (so the
  /// default cell is one region on one scheduler), >= 1 exactly that
  /// many. Results do not depend on `threads`; on tie-free cells they do
  /// not depend on the region count either.
  int shard_regions = 0;
  bridge::BridgeNodeConfig node_config;
  bridge::TopologyBuildOptions build;
};

/// Everything a Workload may touch while driving one built, converged
/// cell. Owned by run_cell; valid only for the duration of Workload::run.
///
/// Every cell is sharded: one scheduler per region, advanced in lockstep
/// by a ParallelRunner (the default cell is one region on one inline
/// scheduler). A workload that allocates and schedules only through the
/// views below, and advance(), gives the same results at every thread
/// count, and on tie-free cells at every region count.
struct WorkloadContext {
  const SweepOptions& options;

  bridge::ShardedTopology* sharded = nullptr;
  netsim::ParallelRunner* runner = nullptr;

  /// Always null, and is_sharded() always true: every cell is the
  /// `sharded` topology above. Only bench/e2e/ab_bench.cpp still names
  /// them, in branches no cell takes; remove them together with those
  /// branches.
  netsim::Network* single_net = nullptr;
  bridge::ShardedTopology* single_topo = nullptr;
  [[nodiscard]] bool is_sharded() const { return true; }

  [[nodiscard]] std::size_t host_count() const;
  /// Host at global attachment ordinal `i` (the plan's lan-major order),
  /// built now if it has not acted yet. Building one changes nothing a
  /// run observes, so ask only for the hosts the workload drives.
  [[nodiscard]] stack::HostStack& host(std::size_t i) const;
  /// Where host ordinal `i` attaches (global plan), with its NIC's name
  /// spelled out. The plan stores nothing per host, so this builds the
  /// name: a loop over every host reads host_lan or lan_hosts instead.
  /// Throws std::out_of_range for i >= host_count().
  struct HostSite {
    int lan = 0;
    int index = 0;
    std::string name;
  };
  [[nodiscard]] HostSite host_attach(std::size_t i) const;
  /// The global LAN host ordinal `i` attaches to. Throws
  /// std::out_of_range for i >= host_count().
  [[nodiscard]] std::size_t host_lan(std::size_t i) const;
  /// The host ordinals on global LAN `l`, a consecutive range (the plan is
  /// lan-major).
  [[nodiscard]] netsim::Topology::HostRange lan_hosts(std::size_t l) const;
  [[nodiscard]] std::size_t lan_count() const;
  /// NICs attached to global LAN `l` plus its hosts not yet built,
  /// summed over its replicas.
  [[nodiscard]] std::size_t lan_attached_count(std::size_t l) const;
  /// The clock of global LAN `l`'s owning region: where its hosts and any
  /// add_station_nic(_, l) NIC run.
  [[nodiscard]] netsim::Scheduler& lan_scheduler(std::size_t l) const;
  /// Creates a workload-owned station NIC on the owning region's replica
  /// of global LAN `l` (ShardedTopology::add_station_nic): its MAC
  /// continues the cell's global counter, so a cell's addresses do not
  /// depend on its region count.
  [[nodiscard]] netsim::Nic& add_station_nic(const std::string& name,
                                             std::size_t l) const;
  /// Advances virtual time on every region in conservative lockstep
  /// windows.
  void advance(netsim::Duration d) const;
};

/// A traffic pattern the sweep drives over each built topology. Implement
/// run() to place apps, advance the scheduler through the traffic window,
/// and record what you measured (see the "How to add a workload" example
/// at the top of this header). Workloads are reused across cells, so keep
/// per-cell state local to run().
class Workload {
 public:
  virtual ~Workload() = default;

  /// Stable tag recorded into SweepResult::workload and the bench JSON.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Drive traffic over a built topology (already converged for
  /// options.convergence_window) and fill the workload fields of `result`.
  /// The implementation advances virtual time itself via ctx.advance().
  ///
  /// Lifetime contract: run_cell never advances the schedulers after run()
  /// returns, so apps owned by the workload (senders, deployers, extra
  /// hosts) may live on run()'s stack even if their timers are still
  /// queued when it returns. A workload that itself runs other workloads
  /// (or otherwise advances the schedulers after inner apps are destroyed)
  /// must cancel or outlive those apps' pending callbacks.
  ///
  /// Sharded cells: during ctx.advance() each host's callbacks run on its
  /// shard's worker thread. Place per-host state so no two hosts on
  /// different shards share a mutable location (e.g. one counter slot per
  /// host, summed after advance() -- see FloodPingWorkload).
  virtual void run(WorkloadContext& ctx, SweepResult& result) = 0;
};

/// The original canned workload: a broadcast burst from a probe NIC on
/// lan0, then every host pings its successor (populates MAC tables, then
/// rides directed forwarding). Knobs come from SweepOptions.
class FloodPingWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "flood+pings"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;
};

/// K concurrent ttcp streams placed across LANs (sender and sink on
/// different segments whenever the topology has enough hosts). Fills
/// SweepResult::streams.
class TtcpStreamWorkload final : public Workload {
 public:
  /// Where each stream's sender and sink land (the ROADMAP "stream
  /// placement strategies" knob).
  enum class Placement {
    /// Pair host s with the host half the population away: with lan-major
    /// host ordering that crosses LANs whenever more than one segment is
    /// populated. The original default.
    kPaired,
    /// Every sink sits on the busiest segment (the one with the most
    /// attached stations -- a scale-free shape's hub), senders drawn from
    /// the other LANs: all streams converge on the hub's links, the
    /// bottleneck DEC-TR-592's skewed destination locality predicts.
    kHubTargeted,
  };

  /// Which transport carries the streams.
  enum class Transport {
    kUdp,  ///< the paper's original blast (loss shows as missing datagrams)
    kTcp,  ///< real connections (loss shows as retransmits + cwnd cuts)
  };

  struct Options {
    int streams = 4;                       ///< concurrent sender/sink pairs
    std::size_t bytes_per_stream = 256 * 1024;
    Placement placement = Placement::kPaired;
    Transport transport = Transport::kUdp;
  };

  TtcpStreamWorkload() = default;
  explicit TtcpStreamWorkload(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "ttcp-streams"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;

 private:
  Options options_;
};

/// The million-station workload. A big cell's stations are almost all
/// idle: they hold addresses, occupy LAN attachment points, and answer
/// nothing -- their cost is memory, not traffic. Driving each one as a
/// first-class app (FloodPingWorkload pings EVERY host) is what caps
/// sweep cells at a few thousand stations. This workload keeps a handful
/// of REAL talkers per LAN (neighbor pings + one cross-LAN ttcp stream,
/// the flood+pings+ttcp mix of the other workloads) and models the idle
/// majority's background chatter -- ARP who-has + a ping toward the LAN's
/// first talker -- by replaying pre-encoded frames in a seeded SAMPLE of
/// the idle stations' names from ONE generator NIC per LAN.
///
/// The aggregate path is counter-equivalent to materializing the same
/// background from each sampled station's own NIC: the frames, their
/// timestamps, the bridges' learned tables, and every scheduler/LAN
/// counter match exactly on loss-free segments, because the only
/// difference is which NIC clocked the frame onto the wire and the
/// background gap keeps the generator's transmitter idle between frames
/// (no queueing skew). `materialize_background` flips to the reference
/// model so tests can assert the equivalence on small cells.
///
/// Shard-aware: the background sample is drawn from ONE seeded RNG walking
/// LANs in global order (so every region count samples identical
/// stations); each LAN's generator NIC is created on the LAN's owning
/// region, and its replay is scheduled on that region's clock (any host of
/// the LAN lives there). Talker pings use one answer slot per talker, and
/// the cross-LAN ttcp stream rides the mailbox path when its endpoints
/// land on different regions. On tie-free cells the observables at any
/// region count match the 1-region cell bit for bit.
class AggregateHostWorkload final : public Workload {
 public:
  struct Options {
    /// Real conversing stations per LAN (the first K host ordinals).
    int talkers_per_lan = 2;
    /// Idle stations per LAN whose chatter is modeled, sampled by seed.
    int background_per_lan = 16;
    /// Seeds the background sample. Same seed, same cell -> bit-identical
    /// counters.
    std::uint64_t seed = 1;
    /// Replay each background frame from its own station's NIC instead of
    /// the per-LAN generator (the fully-materialized reference model).
    bool materialize_background = false;
  };

  AggregateHostWorkload() = default;
  explicit AggregateHostWorkload(Options options) : options_(options) {}

  [[nodiscard]] std::string_view name() const override { return "aggregate-hosts"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;

 private:
  Options options_;
};

/// The paper's section 5.2 staged deployment, replayed as a workload: an
/// admin host on lan0 pushes the bridge.monitor switchlet to every
/// bridge's network loader -- bridges nearest the admin first, the stage
/// growing with BFS distance exactly as the paper grows the extended LAN's
/// diameter -- while background pings keep frames moving. Requires
/// SweepOptions::build.netloader (throws std::logic_error otherwise).
/// Fills SweepResult::rollout.
///
/// Shard-aware: the admin station and its Deployer run on lan0's owning
/// region, each background ping on its source host's clock, and TFTP to a
/// bridge in another region crosses the cut LANs' mailboxes. The step
/// callback records only what the deployer knows; every per-bridge
/// counter (the monitor's, the loader's) is read after advance().
class RolloutWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "rollout"; }
  void run(WorkloadContext& ctx, SweepResult& result) override;
};

/// Builds each cell of a grid as a fresh sharded cell, converges it, and
/// hands it to a Workload (FloodPingWorkload when none is given).
class TopologySweep {
 public:
  explicit TopologySweep(SweepOptions options = {}) : options_(std::move(options)) {}

  /// Builds one cell, drives the default flood+pings workload, measures.
  [[nodiscard]] SweepResult run_cell(const netsim::TopologySpec& spec);

  /// Builds one cell, drives `workload`, measures.
  [[nodiscard]] SweepResult run_cell(const netsim::TopologySpec& spec,
                                     Workload& workload);

  /// run_cell over every spec, in order, with the default workload.
  [[nodiscard]] std::vector<SweepResult> run_grid(
      const std::vector<netsim::TopologySpec>& grid);

  /// run_cell over every spec, in order, with `workload`.
  [[nodiscard]] std::vector<SweepResult> run_grid(
      const std::vector<netsim::TopologySpec>& grid, Workload& workload);

  /// Cross product helper: every shape x every node count, fixed hosts.
  [[nodiscard]] static std::vector<netsim::TopologySpec> make_grid(
      const std::vector<netsim::TopologyShape>& shapes,
      const std::vector<int>& node_counts, int hosts_per_lan);

  /// Human-readable summary table.
  [[nodiscard]] static std::string format_table(const std::vector<SweepResult>& cells);

  /// JSON array for BENCH_*.json trajectories; stream and rollout detail
  /// is emitted for cells that carry it.
  [[nodiscard]] static std::string format_json(const std::vector<SweepResult>& cells);

 private:
  SweepOptions options_;
};

}  // namespace ab::apps
