// TopologySweep: the grid harness must build each cell, converge it, drive
// the canned workload, and report consistent numbers.
#include "src/apps/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace ab::apps {
namespace {

TEST(TopologySweep, MakeGridIsTheCrossProduct) {
  const auto grid = TopologySweep::make_grid(
      {netsim::TopologyShape::kRing, netsim::TopologyShape::kLine}, {2, 4}, 1);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].label(), "ring-2x1");
  EXPECT_EQ(grid[1].label(), "ring-4x1");
  EXPECT_EQ(grid[2].label(), "line-2x1");
  EXPECT_EQ(grid[3].label(), "line-4x1");
}

TEST(TopologySweep, CellRunsToConvergenceWithTraffic) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 3;
  spec.hosts_per_lan = 1;

  TopologySweep sweep;
  const SweepResult r = sweep.run_cell(spec);
  EXPECT_EQ(r.label, "ring-3x1");
  EXPECT_EQ(r.bridges, 3);
  EXPECT_EQ(r.lans, 3);
  EXPECT_EQ(r.hosts, 3);
  EXPECT_EQ(r.ports, 6);
  EXPECT_TRUE(r.stp_converged);
  EXPECT_EQ(r.blocked_ports, 1);
  EXPECT_EQ(r.pings_sent, 3);
  EXPECT_EQ(r.pings_answered, 3);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.frames_carried, 0u);
  EXPECT_GT(r.mac_entries, 0u);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.virtual_seconds, 50.0);  // 45 s convergence + 5 s traffic
}

TEST(TopologySweep, GridPreservesOrderAndFormats) {
  SweepOptions opts;
  opts.convergence_window = netsim::seconds(45);
  opts.probe_broadcasts = 2;
  TopologySweep sweep(opts);
  const auto cells = sweep.run_grid(TopologySweep::make_grid(
      {netsim::TopologyShape::kLine}, {1, 2}, 1));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].label, "line-1x1");
  EXPECT_EQ(cells[1].label, "line-2x1");
  // Every cell is its own world: a line never blocks a port.
  for (const auto& c : cells) {
    EXPECT_TRUE(c.stp_converged);
    EXPECT_EQ(c.blocked_ports, 0);
    EXPECT_EQ(c.pings_answered, c.pings_sent);
  }

  const std::string table = TopologySweep::format_table(cells);
  EXPECT_NE(table.find("line-1x1"), std::string::npos);
  EXPECT_NE(table.find("line-2x1"), std::string::npos);

  const std::string json = TopologySweep::format_json(cells);
  EXPECT_NE(json.find("\"cell\": \"line-1x1\""), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"stp_converged\": true"), std::string::npos);
}

TEST(TopologySweep, TtcpWorkloadMovesBytesAcrossLans) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 4;
  spec.hosts_per_lan = 1;

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 2;
  wopts.bytes_per_stream = 32 * 1024;
  TtcpStreamWorkload ttcp(wopts);
  TopologySweep sweep;
  const SweepResult r = sweep.run_cell(spec, ttcp);

  EXPECT_EQ(r.workload, "ttcp-streams");
  EXPECT_TRUE(r.stp_converged);
  ASSERT_EQ(r.streams.size(), 2u);
  for (const StreamResult& s : r.streams) {
    EXPECT_EQ(s.bytes_sent, 32u * 1024u);
    // Lossless segments, generous window: every byte arrives.
    EXPECT_EQ(s.bytes_received, s.bytes_sent);
    EXPECT_DOUBLE_EQ(s.loss_fraction, 0.0);
    EXPECT_GT(s.goodput_mbps, 0.0);
    EXPECT_GT(s.datagrams, 0u);
  }
  EXPECT_GT(r.total_goodput_mbps(), 0.0);

  const std::string json = TopologySweep::format_json({r});
  EXPECT_NE(json.find("\"workload\": \"ttcp-streams\""), std::string::npos);
  EXPECT_NE(json.find("\"streams\": ["), std::string::npos);
  EXPECT_NE(json.find("\"goodput_mbps_total\""), std::string::npos);
}

TEST(TopologySweep, TtcpHubTargetedPlacementSinksOnTheHubLan) {
  // On a star, the hub segment (lan0 bridges every node) is the busiest;
  // hub-targeted placement must sink every stream there, with senders
  // drawn from the leaf LANs.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 4;
  spec.hosts_per_lan = 2;

  TtcpStreamWorkload::Options wopts;
  wopts.streams = 3;
  wopts.bytes_per_stream = 16 * 1024;
  wopts.placement = TtcpStreamWorkload::Placement::kHubTargeted;
  TtcpStreamWorkload ttcp(wopts);
  TopologySweep sweep;
  const SweepResult r = sweep.run_cell(spec, ttcp);

  EXPECT_TRUE(r.stp_converged);
  ASSERT_EQ(r.streams.size(), 3u);
  // The star's hub is lan0; its hosts are named host0_*.
  for (const StreamResult& s : r.streams) {
    const auto arrow = s.label.find(" -> ");
    ASSERT_NE(arrow, std::string::npos);
    const std::string sink = s.label.substr(arrow + 4);
    EXPECT_EQ(sink.rfind("host0_", 0), 0u) << s.label;
    EXPECT_NE(s.label.rfind("host0_", 0), 0u) << s.label;  // sender off-hub
    EXPECT_EQ(s.bytes_received, s.bytes_sent) << s.label;
  }
}

TEST(TopologySweep, CellRecordsInsertAccounting) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kLine;
  spec.nodes = 2;
  spec.hosts_per_lan = 1;
  TopologySweep sweep;
  const SweepResult r = sweep.run_cell(spec);
  EXPECT_GT(r.heap_inserts, 0u);
  // Batched transmit paths mean strictly fewer inserts than entries.
  EXPECT_GE(r.scheduled_entries, r.heap_inserts);
  EXPECT_GE(r.insert_reduction(), 1.0);
  const std::string json = TopologySweep::format_json({r});
  EXPECT_NE(json.find("\"heap_inserts\""), std::string::npos);
  EXPECT_NE(json.find("\"insert_reduction\""), std::string::npos);
}

TEST(TopologySweep, RolloutWorkloadDeploysToEveryBridgeInStages) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kLine;
  spec.nodes = 3;
  spec.hosts_per_lan = 1;

  SweepOptions opts;
  opts.build.netloader = true;
  TopologySweep sweep(opts);
  RolloutWorkload rollout;
  const SweepResult r = sweep.run_cell(spec, rollout);

  EXPECT_EQ(r.workload, "rollout");
  EXPECT_TRUE(r.stp_converged);
  ASSERT_EQ(r.rollout.size(), 3u);
  EXPECT_TRUE(r.rollout_ok());
  // The admin sits on lan0: stages grow with the line, and the plan runs
  // nearest-first.
  EXPECT_EQ(r.rollout[0].bridge, "bridge0");
  EXPECT_EQ(r.rollout[0].stage, 0);
  EXPECT_EQ(r.rollout[1].stage, 1);
  EXPECT_EQ(r.rollout[2].stage, 2);
  for (const RolloutStepResult& step : r.rollout) {
    EXPECT_GT(step.load_ms, 0.0);
    EXPECT_GE(step.attempts, 1);
    EXPECT_GT(step.bytes_pushed, 0u);
    // The monitor generation took over mid-traffic and saw frames.
    EXPECT_GT(step.frames_after_load, 0u);
  }
  // Background pings flowed while the rollout ran.
  EXPECT_GT(r.pings_sent, 0);
  EXPECT_GT(r.pings_answered, 0);

  const std::string json = TopologySweep::format_json({r});
  EXPECT_NE(json.find("\"rollout_ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"load_ms\""), std::string::npos);
}

TEST(TopologySweep, RolloutThatOutlastsTheWindowIsNotReportedOk) {
  // A traffic window too short for the whole plan: the unreached bridges
  // must appear as failed steps so rollout_ok() is false (a partially
  // deployed network is not a successful rollout).
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kLine;
  spec.nodes = 3;

  SweepOptions opts;
  opts.build.netloader = true;
  opts.traffic_window = netsim::microseconds(200);  // ~one ARP round trip
  TopologySweep sweep(opts);
  RolloutWorkload rollout;
  const SweepResult r = sweep.run_cell(spec, rollout);
  EXPECT_EQ(r.rollout.size(), 3u);  // every planned bridge is accounted for
  EXPECT_FALSE(r.rollout_ok());
}

TEST(TopologySweep, RolloutWorkloadRequiresNetloaders) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kLine;
  spec.nodes = 1;
  TopologySweep sweep;  // build.netloader defaults to false
  RolloutWorkload rollout;
  EXPECT_THROW((void)sweep.run_cell(spec, rollout), std::logic_error);
}

TEST(TopologySweep, StpOffMeasuresTheStorm) {
  // Without STP a 3-ring floods forever: the sweep must survive it (the
  // traffic window bounds the run) and report the loop clearly.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 3;

  SweepOptions opts;
  opts.build.stp = false;
  opts.convergence_window = netsim::seconds(1);
  opts.traffic_window = netsim::milliseconds(50);
  opts.probe_broadcasts = 1;
  opts.neighbor_pings = false;
  TopologySweep sweep(opts);
  const SweepResult r = sweep.run_cell(spec);
  EXPECT_FALSE(r.stp_converged);
  // One injected broadcast, hundreds of looped copies.
  EXPECT_GT(r.frames_carried, 100u);
}

netsim::TopologySpec small_star() {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 2;       // hub + 2 leaves = 3 LANs
  spec.hosts_per_lan = 8;
  return spec;
}

AggregateHostWorkload::Options small_aggregate_options() {
  AggregateHostWorkload::Options opts;
  opts.talkers_per_lan = 2;
  opts.background_per_lan = 4;
  opts.seed = 7;
  return opts;
}

TEST(AggregateHostWorkload, SameSeedSameCellIsBitIdentical) {
  // The aggregate model samples its background stations by seed; a rerun
  // of the identical cell must replay the identical simulation, counter
  // for counter -- determinism is what makes the bench columns and the
  // CI bounds meaningful.
  const netsim::TopologySpec spec = small_star();
  SweepResult runs[2];
  for (SweepResult& r : runs) {
    AggregateHostWorkload workload(small_aggregate_options());
    TopologySweep sweep;
    r = sweep.run_cell(spec, workload);
  }
  EXPECT_EQ(runs[0].frames_carried, runs[1].frames_carried);
  EXPECT_EQ(runs[0].bytes_carried, runs[1].bytes_carried);
  EXPECT_EQ(runs[0].events, runs[1].events);
  EXPECT_EQ(runs[0].heap_inserts, runs[1].heap_inserts);
  EXPECT_EQ(runs[0].scheduled_entries, runs[1].scheduled_entries);
  EXPECT_EQ(runs[0].pings_sent, runs[1].pings_sent);
  EXPECT_EQ(runs[0].pings_answered, runs[1].pings_answered);
  EXPECT_GT(runs[0].frames_carried, 0u);
  EXPECT_GT(runs[0].pings_answered, 0);
}

TEST(AggregateHostWorkload, MatchesTheMaterializedModelOnASmallCell) {
  // The acceptance claim behind the million-station cell: replaying a
  // background frame from the per-LAN generator NIC instead of the
  // station's own NIC changes NOTHING the simulation can observe -- the
  // frame carries the station's real MAC/IP, the generator is attached
  // first in both modes (identical receiver walks), and the gap keeps the
  // generator idle (no queueing skew). Same cell, same seed, both modes:
  // every shared counter must match bit for bit.
  const netsim::TopologySpec spec = small_star();
  SweepResult by_mode[2];
  for (int materialize = 0; materialize < 2; ++materialize) {
    AggregateHostWorkload::Options opts = small_aggregate_options();
    opts.materialize_background = materialize == 1;
    AggregateHostWorkload workload(opts);
    TopologySweep sweep;
    by_mode[materialize] = sweep.run_cell(spec, workload);
  }
  const SweepResult& aggregate = by_mode[0];
  const SweepResult& materialized = by_mode[1];
  EXPECT_EQ(aggregate.frames_carried, materialized.frames_carried);
  EXPECT_EQ(aggregate.bytes_carried, materialized.bytes_carried);
  EXPECT_EQ(aggregate.frames_lost, materialized.frames_lost);
  EXPECT_EQ(aggregate.events, materialized.events);
  EXPECT_EQ(aggregate.heap_inserts, materialized.heap_inserts);
  EXPECT_EQ(aggregate.scheduled_entries, materialized.scheduled_entries);
  EXPECT_EQ(aggregate.pings_sent, materialized.pings_sent);
  EXPECT_EQ(aggregate.pings_answered, materialized.pings_answered);
  ASSERT_EQ(aggregate.streams.size(), materialized.streams.size());
  for (std::size_t i = 0; i < aggregate.streams.size(); ++i) {
    EXPECT_EQ(aggregate.streams[i].bytes_received, materialized.streams[i].bytes_received);
  }
  // And the background actually ran: every LAN's sampled stations pinged.
  EXPECT_GT(aggregate.pings_answered, 0);
}

/// Runs `inner` and records how many hosts the cell had built before and
/// after it, and the LAN populations it saw first.
class CountBuilds final : public Workload {
 public:
  explicit CountBuilds(Workload& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  void run(WorkloadContext& ctx, SweepResult& result) override {
    before = ctx.sharded->hosts_built();
    for (std::size_t l = 0; l < ctx.lan_count(); ++l) {
      attached.push_back(ctx.lan_attached_count(l));
    }
    inner_.run(ctx, result);
    after = ctx.sharded->hosts_built();
  }

  std::size_t before = 0;
  std::size_t after = 0;
  std::vector<std::size_t> attached;

 private:
  Workload& inner_;
};

TEST(AggregateHostWorkload, BuildsOnlyTheStationsThatActOrAreAskedFor) {
  // The benchmark's star-agg cell: 8 bridges, 9 LANs of 12,500 stations.
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 8;
  spec.hosts_per_lan = 12500;
  AggregateHostWorkload::Options opts;
  opts.seed = 7;
  AggregateHostWorkload aggregate(opts);
  CountBuilds count(aggregate);
  TopologySweep sweep;
  const SweepResult r = sweep.run_cell(spec, count);
  ASSERT_TRUE(r.stp_converged);
  ASSERT_EQ(r.hosts, 112500);
  // Converged, and not one station built: BPDUs concern no station.
  EXPECT_EQ(count.before, 0u);
  ASSERT_EQ(count.attached.size(), 9u);
  EXPECT_EQ(count.attached[0], 8u + 12500u);  // the hub's bridge ports
  for (std::size_t l = 1; l < count.attached.size(); ++l) {
    EXPECT_EQ(count.attached[l], 1u + 12500u) << "lan " << l;
  }
  // After the traffic: the talkers and the sampled background stations,
  // which the workload asks for, and no station their frames reach.
  const auto per_lan =
      static_cast<std::size_t>(opts.talkers_per_lan + opts.background_per_lan);
  EXPECT_EQ(count.after, 9u * per_lan);
  EXPECT_GT(r.pings_sent, 0);
  EXPECT_EQ(r.pings_answered, r.pings_sent);
}


/// Runs `inner`, then reads every NIC attached to every replica of the
/// cell: how many there are, and the names of those that neither sent nor
/// were handed a frame.
class SilentNics final : public Workload {
 public:
  explicit SilentNics(Workload& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  void run(WorkloadContext& ctx, SweepResult& result) override {
    inner_.run(ctx, result);
    for (const auto& region : ctx.sharded->regions) {
      for (const netsim::LanSegment* replica : region->replicas) {
        if (replica == nullptr) continue;
        for (const netsim::Nic* nic : replica->attached()) {
          if (nic == nullptr) continue;
          attached += 1;
          const netsim::NicStats& s = nic->stats();
          if (s.tx_frames + s.rx_frames + s.rx_filtered + s.rx_bad == 0) {
            silent.push_back(nic->name());
          }
        }
      }
    }
  }

  std::size_t attached = 0;
  std::vector<std::string> silent;

 private:
  Workload& inner_;
};

/// The attached NICs of `spec` under `workload`, after checking that none
/// of them is silent.
std::size_t nics_that_all_saw_traffic(const netsim::TopologySpec& spec, Workload& workload,
                                      const SweepOptions& options = {}) {
  SilentNics check(workload);
  TopologySweep sweep(options);
  (void)sweep.run_cell(spec, check);
  EXPECT_EQ(check.silent, std::vector<std::string>{});
  return check.attached;
}

// The benchmark's cell shapes (bench/e2e's --smoke sizes) build only the
// stations that act: at cell end every NIC on every replica, station or
// bridge port, has sent or been handed a frame.
TEST(BenchmarkCells, KregFloodBuildsOnlyNicsThatSeeTraffic) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRandomKRegular;
  spec.nodes = 32;
  spec.hosts_per_lan = 4;
  spec.degree = 4;
  spec.seed = 7;
  FloodPingWorkload flood;
  EXPECT_EQ(nics_that_all_saw_traffic(spec, flood), 385u);
}

TEST(BenchmarkCells, TcpHubBuildsOnlyNicsThatSeeTraffic) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kScaleFree;
  spec.nodes = 32;
  spec.hosts_per_lan = 2;
  spec.attach = 2;
  spec.seed = 7;
  TtcpStreamWorkload::Options wopts;
  wopts.transport = TtcpStreamWorkload::Transport::kTcp;
  wopts.placement = TtcpStreamWorkload::Placement::kHubTargeted;
  wopts.streams = 8;
  wopts.bytes_per_stream = std::size_t{1} << 20;
  TtcpStreamWorkload ttcp(wopts);
  SweepOptions options;
  options.traffic_window = netsim::seconds(20);
  EXPECT_EQ(nics_that_all_saw_traffic(spec, ttcp, options), 132u);
}

TEST(BenchmarkCells, StarAggBuildsOnlyNicsThatSeeTrafficAtOneAndEightRegions) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 8;
  spec.hosts_per_lan = 1250;
  AggregateHostWorkload::Options wopts;
  wopts.seed = 7;
  AggregateHostWorkload one_region_workload(wopts);
  EXPECT_EQ(nics_that_all_saw_traffic(spec, one_region_workload), 188u);

  SweepOptions sharded;
  sharded.shard_regions = 8;
  sharded.threads = 2;
  AggregateHostWorkload sharded_workload(wopts);
  EXPECT_EQ(nics_that_all_saw_traffic(spec, sharded_workload, sharded), 188u);
}

/// Checks the context's host views on the cell it is handed.
class CheckHostViews final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const override { return "check-host-views"; }
  void run(WorkloadContext& ctx, SweepResult& /*result*/) override {
    const std::size_t n = ctx.host_count();
    ASSERT_GT(n, 0u);
    std::size_t next = 0;
    for (std::size_t l = 0; l < ctx.lan_count(); ++l) {
      const netsim::Topology::HostRange range = ctx.lan_hosts(l);
      EXPECT_EQ(range.first, next) << "lan " << l;
      for (std::size_t i = range.first; i < range.first + range.count; ++i) {
        EXPECT_EQ(ctx.host_lan(i), l) << "host " << i;
        EXPECT_EQ(ctx.host_attach(i).name,
                  "host" + std::to_string(l) + "_" + std::to_string(i - range.first));
      }
      next += range.count;
    }
    EXPECT_EQ(next, n);
    EXPECT_THROW((void)ctx.host_attach(n), std::out_of_range);
    EXPECT_THROW((void)ctx.host_lan(n), std::out_of_range);
    EXPECT_THROW((void)ctx.host(n), std::out_of_range);
    EXPECT_EQ(ctx.sharded->hosts_built(), 0u);
    checked = true;
  }
  bool checked = false;
};

TEST(WorkloadContext, HostViewsFollowThePlanAndThrowPastTheLastHost) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kRing;
  spec.nodes = 3;
  spec.hosts_per_lan = 4;
  CheckHostViews check;
  TopologySweep sweep;
  (void)sweep.run_cell(spec, check);
  EXPECT_TRUE(check.checked);
}

/// Names of the built station NICs on every LAN of the cell, after the
/// inner workload ran.
class BuiltStations final : public Workload {
 public:
  explicit BuiltStations(Workload& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  void run(WorkloadContext& ctx, SweepResult& result) override {
    inner_.run(ctx, result);
    for (std::size_t l = 0; l < ctx.lan_count(); ++l) {
      for (const netsim::Nic* nic : ctx.sharded->owner_region(l).replicas[l]->attached()) {
        if (nic != nullptr && nic->name().starts_with("host")) names.insert(nic->name());
      }
    }
  }
  std::set<std::string> names;

 private:
  Workload& inner_;
};

// The background sample is a partial Fisher-Yates over each LAN's idle
// ordinals. Drawn here over a copied vector of them, with the same seed and
// the same calls, it must pick the stations the workload built.
TEST(AggregateHostWorkload, SamplesTheStationsACopiedFisherYatesPicks) {
  netsim::TopologySpec spec;
  spec.shape = netsim::TopologyShape::kStar;
  spec.nodes = 3;
  spec.hosts_per_lan = 40;
  AggregateHostWorkload::Options opts;
  opts.seed = 23;
  AggregateHostWorkload aggregate(opts);
  BuiltStations built(aggregate);
  TopologySweep sweep;
  (void)sweep.run_cell(spec, built);

  std::set<std::string> expected;
  util::Rng rng(opts.seed);
  const auto talkers = static_cast<std::size_t>(opts.talkers_per_lan);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t k = 0; k < talkers; ++k) {
      expected.insert("host" + std::to_string(l) + "_" + std::to_string(k));
    }
    std::vector<std::size_t> idle;
    for (std::size_t k = talkers; k < 40; ++k) idle.push_back(k);
    for (std::size_t j = 0; j < static_cast<std::size_t>(opts.background_per_lan); ++j) {
      const std::size_t pick = j + rng.index(idle.size() - j);
      std::swap(idle[j], idle[pick]);
      expected.insert("host" + std::to_string(l) + "_" + std::to_string(idle[j]));
    }
  }
  EXPECT_EQ(built.names, expected);
}

}  // namespace
}  // namespace ab::apps
