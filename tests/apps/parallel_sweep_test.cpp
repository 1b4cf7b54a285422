// The sharded parallel core's acceptance property: a cell split across
// regions is OBSERVABLY IDENTICAL to the 1-region oracle (the default
// cell: one region on one scheduler) -- same frames, bytes, pings, MAC
// tables, stream bytes -- and a cell's results are a pure function of the
// cell, independent of thread count and repeatable run to run. The 1-region
// build itself is pinned to recorded values in tests/bridge/topology_test.cpp
// (ShardedBuild.OneRegionStarCellKeepsItsRecordedIdentityAndRun).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "bench/fork_cell.h"
#include "src/apps/scenario.h"
#include "src/bridge/sharded_topology.h"
#include "src/bridge/topology.h"

namespace ab::apps {
namespace {

netsim::TopologySpec star_cell() {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 3;  // hub lan + 3 leaf lans, 3 bridges
  spec.hosts_per_lan = 2;
  return spec;
}

// The observable contract: everything a user of the sweep reads that does
// not depend on HOW the event loop was partitioned. Scheduler-internal
// counters (events, heap_inserts) are compared only between runs with the
// same region count -- splitting one delivery walk across replicas
// legitimately changes the event count against the oracle, never the
// traffic.
void expect_observables_equal(const SweepResult& a, const SweepResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.frames_carried, b.frames_carried) << what;
  EXPECT_EQ(a.bytes_carried, b.bytes_carried) << what;
  EXPECT_EQ(a.frames_lost, b.frames_lost) << what;
  EXPECT_EQ(a.mac_entries, b.mac_entries) << what;
  EXPECT_EQ(a.pings_sent, b.pings_sent) << what;
  EXPECT_EQ(a.pings_answered, b.pings_answered) << what;
  EXPECT_EQ(a.stp_converged, b.stp_converged) << what;
  EXPECT_EQ(a.blocked_ports, b.blocked_ports) << what;
  EXPECT_EQ(a.forwarding_ports, b.forwarding_ports) << what;
  EXPECT_DOUBLE_EQ(a.virtual_seconds, b.virtual_seconds) << what;
  ASSERT_EQ(a.streams.size(), b.streams.size()) << what;
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].label, b.streams[i].label) << what;
    EXPECT_EQ(a.streams[i].bytes_sent, b.streams[i].bytes_sent) << what;
    EXPECT_EQ(a.streams[i].bytes_received, b.streams[i].bytes_received) << what;
    EXPECT_EQ(a.streams[i].datagrams, b.streams[i].datagrams) << what;
    EXPECT_EQ(a.streams[i].retransmits, b.streams[i].retransmits) << what;
    EXPECT_EQ(a.streams[i].cwnd_final, b.streams[i].cwnd_final) << what;
  }
}

TEST(ParallelSweep, ShardedFloodPingMatchesOracleAtEveryThreadCount) {
  const netsim::TopologySpec spec = star_cell();

  TopologySweep oracle_sweep;  // defaults: one region, one scheduler
  const SweepResult oracle = oracle_sweep.run_cell(spec);
  ASSERT_TRUE(oracle.stp_converged);
  ASSERT_EQ(oracle.pings_answered, oracle.pings_sent);
  ASSERT_GT(oracle.frames_carried, 0u);

  SweepResult reference;  // the threads=1 sharded run
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.shard_regions = 2;  // fixed partition; only the thread count varies
    opts.threads = threads;
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec);

    expect_observables_equal(
        sharded, oracle, "threads=" + std::to_string(threads) + " vs oracle");
    if (threads == 1) {
      reference = sharded;
    } else {
      // Between sharded runs EVERYTHING must match, scheduler internals
      // included: the round/window structure is thread-count independent.
      expect_observables_equal(sharded, reference, "vs threads=1");
      EXPECT_EQ(sharded.events, reference.events) << "threads=" << threads;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts)
          << "threads=" << threads;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelSweep, ShardedTtcpStreamsMatchOracle) {
  const netsim::TopologySpec spec = star_cell();

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;

  TtcpStreamWorkload oracle_ttcp(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_ttcp);
  ASSERT_EQ(oracle.streams.size(), 2u);
  for (const StreamResult& s : oracle.streams) {
    ASSERT_EQ(s.bytes_received, s.bytes_sent);  // lossless, generous window
  }

  for (const int threads : {2, 4}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    TtcpStreamWorkload ttcp(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, ttcp);
    expect_observables_equal(sharded, oracle,
                             "ttcp threads=" + std::to_string(threads));
  }
}

TEST(ParallelSweep, ShardedTcpStreamsMatchOracleBitIdentically) {
  // TCP adds timers (RTO, TIME_WAIT) and feedback loops (cwnd clocks the
  // wire) on top of the UDP streams above, all running on per-host
  // schedulers. The sharded runs must still be a pure function of the
  // cell: frames, bytes, goodput, retransmit counters and the final
  // congestion window identical at every thread count and to the oracle.
  const netsim::TopologySpec spec = star_cell();

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;
  wopts.transport = TtcpStreamWorkload::Transport::kTcp;

  TtcpStreamWorkload oracle_ttcp(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_ttcp);
  ASSERT_EQ(oracle.streams.size(), 2u);
  for (const StreamResult& s : oracle.streams) {
    ASSERT_EQ(s.bytes_sent, 32u * 1024u) << s.label;
    ASSERT_EQ(s.bytes_received, s.bytes_sent) << s.label;  // lossless LANs
    ASSERT_EQ(s.retransmits, 0u) << s.label;
    ASSERT_GT(s.datagrams, 0u) << s.label;   // segments the sink received
    ASSERT_GT(s.cwnd_final, 0u) << s.label;  // connection really ran TCP
    ASSERT_GT(s.goodput_mbps, 0.0) << s.label;
  }

  SweepResult reference;  // the threads=1 sharded run
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    TtcpStreamWorkload ttcp(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, ttcp);

    expect_observables_equal(
        sharded, oracle, "tcp threads=" + std::to_string(threads) + " vs oracle");
    ASSERT_EQ(sharded.streams.size(), oracle.streams.size());
    for (std::size_t i = 0; i < sharded.streams.size(); ++i) {
      // goodput is a double computed from sink timestamps; bit-identity
      // means EXACT equality, not near-equality.
      EXPECT_EQ(sharded.streams[i].goodput_mbps, oracle.streams[i].goodput_mbps)
          << sharded.streams[i].label << " threads=" << threads;
    }
    if (threads == 1) {
      reference = sharded;
    } else {
      expect_observables_equal(sharded, reference,
                               "tcp vs threads=1, threads=" +
                                   std::to_string(threads));
      EXPECT_EQ(sharded.events, reference.events) << "threads=" << threads;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts)
          << "threads=" << threads;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelSweep, ShardedRingAgreesOnSteadyStateAndWithItself) {
  // Conservative windows preserve every event TIME but not the serial
  // oracle's global FIFO tiebreak: on a symmetric ring, two BPDUs reach a
  // boundary bridge at the exact same nanosecond during STP startup and the
  // injected one sorts after a local one where the oracle interleaved them
  // -- a couple of extra hello transmissions in the first 25us, nothing
  // after. So against the oracle this cell pins the steady-state
  // observables (streams, pings, tables, tree shape); between sharded runs
  // at different thread counts EVERYTHING must still match.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 4;
  spec.hosts_per_lan = 1;

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;

  TtcpStreamWorkload oracle_ttcp(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_ttcp);

  SweepResult reference;
  for (const int threads : {1, 2, 4}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    TtcpStreamWorkload ttcp(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, ttcp);

    EXPECT_EQ(sharded.stp_converged, oracle.stp_converged);
    EXPECT_EQ(sharded.blocked_ports, oracle.blocked_ports);
    EXPECT_EQ(sharded.mac_entries, oracle.mac_entries);
    EXPECT_EQ(sharded.pings_sent, oracle.pings_sent);
    EXPECT_EQ(sharded.pings_answered, oracle.pings_answered);
    ASSERT_EQ(sharded.streams.size(), oracle.streams.size());
    for (std::size_t i = 0; i < sharded.streams.size(); ++i) {
      EXPECT_EQ(sharded.streams[i].label, oracle.streams[i].label);
      EXPECT_EQ(sharded.streams[i].bytes_received,
                oracle.streams[i].bytes_received);
      EXPECT_EQ(sharded.streams[i].datagrams, oracle.streams[i].datagrams);
    }

    if (threads == 1) {
      reference = sharded;
    } else {
      expect_observables_equal(sharded, reference,
                               "ring threads=" + std::to_string(threads));
      EXPECT_EQ(sharded.events, reference.events);
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts);
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries);
    }
  }
}

TEST(ParallelSweep, ShardedRunsAreRepeatable) {
  // Same cell, same thread count, fresh sweep objects: the two runs must
  // agree on every counter (the seed-stability requirement the scaling
  // bench's in-run assertion builds on).
  const netsim::TopologySpec spec = star_cell();
  SweepResult runs[2];
  for (SweepResult& r : runs) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = 2;
    TopologySweep sweep(opts);
    r = sweep.run_cell(spec);
  }
  expect_observables_equal(runs[0], runs[1], "repeat run");
  EXPECT_EQ(runs[0].events, runs[1].events);
  EXPECT_EQ(runs[0].heap_inserts, runs[1].heap_inserts);
  EXPECT_EQ(runs[0].scheduled_entries, runs[1].scheduled_entries);
}

TEST(ParallelSweep, ShardedAggregateMatchesOracleBitIdentically) {
  // The aggregate workload partitioned across regions -- per-LAN generator
  // NICs on their owning shard, talkers pinging on per-host clocks, the
  // ttcp stream riding cut-LAN mailboxes -- must reproduce the
  // 1-region oracle's traffic exactly on a tie-free cell, at every
  // thread count, and sharded runs must agree with each other on
  // scheduler internals too.
  netsim::TopologySpec spec = star_cell();
  spec.hosts_per_lan = 8;  // room for talkers AND a background sample

  AggregateHostWorkload::Options wopts;
  wopts.talkers_per_lan = 2;
  wopts.background_per_lan = 4;
  wopts.seed = 7;

  AggregateHostWorkload oracle_aggregate(wopts);
  TopologySweep oracle_sweep;
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_aggregate);
  ASSERT_GT(oracle.pings_sent, 0);
  ASSERT_EQ(oracle.pings_answered, oracle.pings_sent);
  ASSERT_EQ(oracle.streams.size(), 1u);
  ASSERT_EQ(oracle.streams[0].bytes_received, oracle.streams[0].bytes_sent);
  ASSERT_GT(oracle.mac_entries, 0u);

  SweepResult reference;  // the threads=1 sharded run
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    AggregateHostWorkload aggregate(wopts);
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, aggregate);

    expect_observables_equal(
        sharded, oracle,
        "aggregate threads=" + std::to_string(threads) + " vs oracle");
    if (threads == 1) {
      reference = sharded;
    } else {
      expect_observables_equal(sharded, reference,
                               "aggregate vs threads=1, threads=" +
                                   std::to_string(threads));
      EXPECT_EQ(sharded.events, reference.events) << "threads=" << threads;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts)
          << "threads=" << threads;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries)
          << "threads=" << threads;
    }
  }
}

TEST(ParallelSweep, ShardedAggregateBackgroundReplayIsSeedStable) {
  // The background sample is drawn by ONE seeded RNG walking LANs in
  // global order, so the set of speaking stations is a pure function of
  // the seed -- not of the partition, and not of whether the frames are
  // replayed by the generator or clocked out by materialized stations.
  netsim::TopologySpec spec = star_cell();
  spec.hosts_per_lan = 8;

  AggregateHostWorkload::Options wopts;
  wopts.talkers_per_lan = 2;
  wopts.background_per_lan = 4;
  wopts.seed = 21;

  SweepOptions opts;
  opts.shard_regions = 2;
  opts.threads = 2;

  // Same seed, fresh sweeps: identical everything.
  SweepResult runs[2];
  for (SweepResult& r : runs) {
    AggregateHostWorkload aggregate(wopts);
    TopologySweep sweep(opts);
    r = sweep.run_cell(spec, aggregate);
  }
  expect_observables_equal(runs[0], runs[1], "aggregate same-seed repeat");
  EXPECT_EQ(runs[0].events, runs[1].events);
  EXPECT_EQ(runs[0].heap_inserts, runs[1].heap_inserts);

  // Pre-encoded replay vs fully materialized stations: the sample and the
  // wire bytes must agree, at 2 regions exactly like the 1-region
  // equivalence pinned in sweep_test.cpp.
  AggregateHostWorkload::Options mat = wopts;
  mat.materialize_background = true;
  AggregateHostWorkload materialized(mat);
  TopologySweep mat_sweep(opts);
  const SweepResult full = mat_sweep.run_cell(spec, materialized);
  EXPECT_EQ(full.frames_carried, runs[0].frames_carried);
  EXPECT_EQ(full.bytes_carried, runs[0].bytes_carried);
  EXPECT_EQ(full.pings_sent, runs[0].pings_sent);
  EXPECT_EQ(full.pings_answered, runs[0].pings_answered);
  EXPECT_EQ(full.mac_entries, runs[0].mac_entries);
}

/// Runs a RolloutWorkload, then closes its books against the bridges: on
/// every step that loaded, the frames the plane received before the new
/// generation started plus the frames that generation processed must be
/// exactly the plane's received count -- no frame counted twice, none
/// lost. Reads the bridges after the inner run's advance(), like the
/// rollout itself.
class RolloutBooksCheck final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  void run(WorkloadContext& ctx, SweepResult& result) override {
    inner_.run(ctx, result);
    for (const RolloutStepResult& step : result.rollout) {
      if (!step.ok) continue;
      bridge::BridgeNode* node = nullptr;
      for (bridge::BridgeNode* b : ctx.sharded->bridges) {
        if (b->config().name == step.bridge) node = b;
      }
      ASSERT_NE(node, nullptr) << step.bridge;
      EXPECT_EQ(step.frames_before_load + step.frames_after_load,
                node->plane().stats().received)
          << step.bridge;
      ++checked_;
    }
  }

  [[nodiscard]] int checked() const { return checked_; }

 private:
  RolloutWorkload inner_;
  int checked_ = 0;
};

void expect_rollout_equal(const SweepResult& a, const SweepResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.pings_sent, b.pings_sent) << what;
  EXPECT_EQ(a.pings_answered, b.pings_answered) << what;
  ASSERT_EQ(a.rollout.size(), b.rollout.size()) << what;
  for (std::size_t i = 0; i < a.rollout.size(); ++i) {
    const RolloutStepResult& x = a.rollout[i];
    const RolloutStepResult& y = b.rollout[i];
    EXPECT_EQ(x.bridge, y.bridge) << what << " step " << i;
    EXPECT_EQ(x.stage, y.stage) << what << " step " << i;
    EXPECT_EQ(x.ok, y.ok) << what << " step " << i;
    EXPECT_EQ(x.attempts, y.attempts) << what << " step " << i;
    EXPECT_EQ(x.load_ms, y.load_ms) << what << " step " << i;  // exact
    EXPECT_EQ(x.frames_before_load, y.frames_before_load) << what << " step " << i;
    EXPECT_EQ(x.frames_after_load, y.frames_after_load) << what << " step " << i;
    EXPECT_EQ(x.bytes_pushed, y.bytes_pushed) << what << " step " << i;
  }
}

TEST(ParallelSweep, ShardedRolloutMatchesOracle) {
  // The staged rollout split across two regions: the admin and its
  // deployer on the hub LAN's region, the third bridge's TFTP transfer
  // crossing the hub's mailboxes, background pings on their hosts' clocks.
  // Every step, ping and scheduler counter must be independent of the
  // thread count, and every step and ping must equal the 1-region oracle's.
  const netsim::TopologySpec spec = star_cell();

  SweepOptions oracle_opts;
  oracle_opts.build.netloader = true;
  RolloutBooksCheck oracle_rollout;
  TopologySweep oracle_sweep(oracle_opts);
  const SweepResult oracle = oracle_sweep.run_cell(spec, oracle_rollout);
  ASSERT_TRUE(oracle.rollout_ok());
  ASSERT_EQ(oracle.rollout.size(), 3u);
  EXPECT_EQ(oracle_rollout.checked(), 3);
  ASSERT_GT(oracle.pings_answered, 0);

  SweepResult reference;  // the threads=1 run
  for (const int threads : {1, 2, 4}) {
    SweepOptions opts = oracle_opts;
    opts.shard_regions = 2;
    opts.threads = threads;
    RolloutBooksCheck rollout;
    TopologySweep sweep(opts);
    const SweepResult sharded = sweep.run_cell(spec, rollout);
    const std::string what = "rollout threads=" + std::to_string(threads);

    EXPECT_EQ(rollout.checked(), 3) << what;
    expect_rollout_equal(sharded, oracle, what + " vs oracle");
    expect_observables_equal(sharded, oracle, what + " vs oracle");
    if (threads == 1) {
      reference = sharded;
    } else {
      expect_rollout_equal(sharded, reference, what + " vs threads=1");
      EXPECT_EQ(sharded.events, reference.events) << what;
      EXPECT_EQ(sharded.heap_inserts, reference.heap_inserts) << what;
      EXPECT_EQ(sharded.scheduled_entries, reference.scheduled_entries) << what;
    }
  }
}

// bench::run_in_child is the one fork harness the benches use to measure a
// cell in a process of its own.

TEST(ForkCell, ChildCellMatchesInProcessCell) {
  // Forking is a pure execution-strategy change: a cell's columns come
  // back from the child exactly as the same cell computes them in process,
  // and the child reports its own process's peak RSS.
  struct Columns {
    std::uint64_t frames_carried = 0;
    std::uint64_t events = 0;
    int pings_answered = 0;
    std::uint64_t peak_rss_bytes = 0;
  };
  const auto cell = [] {
    TopologySweep sweep;
    const SweepResult r = sweep.run_cell(star_cell());
    return Columns{r.frames_carried, r.events, r.pings_answered, r.peak_rss_bytes};
  };
  const Columns child = bench::run_in_child<Columns>(cell);
  const Columns in_process = cell();
  ASSERT_GT(in_process.frames_carried, 0u);
  EXPECT_EQ(child.frames_carried, in_process.frames_carried);
  EXPECT_EQ(child.events, in_process.events);
  EXPECT_EQ(child.pings_answered, in_process.pings_answered);
#if defined(__linux__)
  EXPECT_GT(child.peak_rss_bytes, 0u);
#endif
}

#if defined(__linux__)
TEST(ForkCell, AThrowingCellComesBackEmptyAndNeverReturnsIntoTheCaller) {
  // A child whose cell throws must end inside run_in_child. If the
  // exception escaped, the child would go on running this test -- and,
  // under gtest, the rest of the suite -- as a second copy of the caller.
  // The catch block below is reachable only by such a child; it leaves a
  // mark in a file both processes share, then exits.
  struct Columns {
    std::uint64_t events = 0;
    int hosts = 0;
  };
  std::FILE* escaped = std::tmpfile();
  ASSERT_NE(escaped, nullptr);
  const pid_t parent = getpid();
  Columns got{7, 7};
  try {
    got = bench::run_in_child<Columns>([]() -> Columns {
      throw std::runtime_error("cell failed");
    });
  } catch (...) {
    if (getpid() == parent) throw;
    std::fputs("the child returned into the caller", escaped);
    std::fflush(escaped);
    _exit(0);
  }
  EXPECT_EQ(got.events, 0u);
  EXPECT_EQ(got.hosts, 0);
  ASSERT_EQ(std::fseek(escaped, 0, SEEK_END), 0);
  EXPECT_EQ(std::ftell(escaped), 0L);
  std::fclose(escaped);
}
#endif

}  // namespace
}  // namespace ab::apps
