// Scheduler core microbench: the indexed 4-ary heap (src/netsim/scheduler)
// against the PR 1 priority_queue + live-set core (baseline_scheduler.h),
// on the workloads the simulator actually generates.
//
//   timer_churn   the cancel-heavy pattern of protocol timers (STP
//                 hello/max-age, TFTP retransmit, MAC aging): a large
//                 standing population of pending timers where most are
//                 cancelled and rescheduled before they ever fire. The
//                 baseline pays a hash insert+erase per event and drags
//                 cancelled entries through the priority_queue; the
//                 indexed heap cancels in place.
//   fire_all      pure schedule-then-drain throughput (frame deliveries).
//   batch_insert  the flood fan-out pattern: every broadcast schedules k
//                 same-time deliveries, a fraction of broadcasts is
//                 cancelled wholesale before firing (a pruned flood, a
//                 torn-down segment). Per-event inserts pay k sifts and k
//                 cancels per broadcast; an equal-time schedule_run_at
//                 pays one sift and one BatchId cancel for the whole run.
//   timed_run     the transmit-burst pattern: a NIC (or processing
//                 element) drains a k-frame backlog whose serialization
//                 completion times are cumulative and known upfront --
//                 k MONOTONE times, one run. Per-event inserts pay k
//                 sifts; schedule_run_at pays one, with the head re-keyed
//                 in place as entries fire. A fraction of bursts is
//                 cancelled wholesale (a torn-down stream).
//                 batch_insert and timed_run share one insert loop; only
//                 the entry times differ.
//   saturated_run the saturated bridge port: ONE timed run kept alive by
//                 try_extend_run at a standing backlog of 64 -- each entry
//                 that fires appends one more past the tail -- for N
//                 entries. Measures events/sec and the peak-RSS growth per
//                 fired entry, in its own forked child so ru_maxrss
//                 moves for this cell alone. A run store that keeps its
//                 fired history grows by its entry size (~80 B) per fired
//                 entry; one that holds only its backlog stays flat.
//
// Writes BENCH_scheduler.json with events/sec for both cores and the
// speedup ratio, tracked across PRs. `--smoke` runs one small repetition
// (CI compiles-and-exercises; numbers are not meaningful there, except
// saturated_run's memory growth, which the guards at the end bound).
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "bench/fork_cell.h"
#include "bench/guards.h"
#include "src/netsim/baseline_scheduler.h"
#include "src/netsim/scheduler.h"
#include "src/util/rng.h"

using namespace ab;

namespace {

struct WorkloadResult {
  std::uint64_t events = 0;  ///< schedule operations performed
  std::uint64_t fired = 0;   ///< callbacks that ran (run_insert)
  double seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

/// What a real simulator event closes over: the LAN delivery path captures
/// a this-pointer, a receiver, and a WireFrame (32 bytes) -- beyond
/// std::function's 16-byte inline buffer, inside InlineFunction's.
struct DeliveryCapture {
  std::uint64_t* counter;
  void* receiver = nullptr;
  void* buffer = nullptr;
  std::uint64_t tag = 0;
  void operator()() const { ++*counter; }
};

/// Cancel-heavy timer churn: a standing population of pending timers where
/// almost every timer is cancelled and re-armed before it fires -- the
/// restart pattern of a protocol timer (STP max-age, TFTP retransmit) that
/// arriving traffic keeps pushing out. Each simulated-microsecond tick
/// restarts `kRestartsPerTick` random victims; at the chosen delays ~90%
/// of timers die by cancel, so the baseline's tombstones pile up (its
/// queue carries several dead entries per live one) while the indexed heap
/// stays at exactly `population` entries. Randomness is precomputed so the
/// clock measures scheduler work, not the RNG.
template <typename SchedulerT>
WorkloadResult timer_churn(std::size_t population, std::size_t rounds) {
  using Id = decltype(std::declval<SchedulerT&>().schedule_after(netsim::Duration{},
                                                                 [] {}));
  constexpr std::size_t kRestartsPerTick = 64;

  util::Rng rng(42);
  std::vector<std::int64_t> delays(population + rounds * kRestartsPerTick);
  for (auto& d : delays) d = static_cast<std::int64_t>(50 + rng.uniform(0, 4999));
  std::vector<std::uint32_t> victims(rounds * kRestartsPerTick);
  for (auto& v : victims) v = static_cast<std::uint32_t>(rng.index(population));

  SchedulerT sched;
  std::uint64_t fired = 0;
  std::vector<Id> timers(population);
  std::size_t next_delay = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < population; ++i) {
    timers[i] = sched.schedule_after(netsim::microseconds(delays[next_delay++]),
                                     DeliveryCapture{&fired});
  }
  std::size_t next_victim = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < kRestartsPerTick; ++k) {
      const std::uint32_t victim = victims[next_victim++];
      sched.cancel(timers[victim]);
      timers[victim] = sched.schedule_after(netsim::microseconds(delays[next_delay++]),
                                            DeliveryCapture{&fired});
    }
    sched.run_for(netsim::microseconds(1));
  }
  sched.run(population);  // drain what's left

  WorkloadResult out;
  out.events = next_delay;  // total schedule operations
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

/// Pure throughput: schedule `count` deliveries at staggered times, drain.
template <typename SchedulerT>
WorkloadResult fire_all(std::size_t count) {
  SchedulerT sched;
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    sched.schedule_after(netsim::microseconds(static_cast<std::int64_t>(i % 997)),
                         DeliveryCapture{&fired});
  }
  sched.run();
  WorkloadResult out;
  out.events = fired;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

/// The run insert pattern on the indexed core itself: per-event
/// schedule_at loops vs one schedule_run_at per run of `len` entries, with
/// every `cancel_every`-th run cancelled wholesale before firing. Entry k
/// of a run fires at now() + first + k * step: a flood fan-out's same-time
/// deliveries (step 0) or a NIC burst's back-to-back serialization chain
/// (step = first). Both sides run the identical event program; only the
/// insert/cancel API differs, so the ratio isolates what a run buys the
/// hot path. Every 8th run drains `drain` of simulated time, so the
/// standing population stays at the LAN-burst / queue-backlog scale rather
/// than growing into a pathological heap.
template <bool kUseRun>
WorkloadResult run_insert(std::size_t runs, std::size_t len, std::size_t cancel_every,
                          netsim::Duration first, netsim::Duration step,
                          netsim::Duration drain) {
  netsim::Scheduler sched;
  std::uint64_t fired = 0;
  std::vector<netsim::Scheduler::TimedEntry> run(len);
  std::vector<netsim::EventId> ids(len);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < runs; ++r) {
    const bool cancel = cancel_every != 0 && r % cancel_every == 0;
    netsim::TimePoint when = sched.now() + first;
    if constexpr (kUseRun) {
      for (std::size_t k = 0; k < len; ++k, when += step) {
        run[k].when = when;
        run[k].fn = DeliveryCapture{&fired};
      }
      const netsim::BatchId id = sched.schedule_run_at(run);
      if (cancel) sched.cancel(id);
    } else {
      for (std::size_t k = 0; k < len; ++k, when += step) {
        ids[k] = sched.schedule_at(when, DeliveryCapture{&fired});
      }
      if (cancel) {
        for (std::size_t k = 0; k < len; ++k) sched.cancel(ids[k]);
      }
    }
    if (r % 8 == 7) sched.run_for(drain);
  }
  sched.run();

  WorkloadResult out;
  out.events = runs * len;  // schedule operations issued
  out.fired = fired;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

struct SaturatedResult {
  std::uint64_t fired = 0;
  double seconds = 0.0;
  std::uint64_t rss_growth_bytes = 0;  ///< peak RSS after minus before
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(fired) / seconds : 0.0;
  }
  [[nodiscard]] double growth_per_entry() const {
    return fired > 0 ? static_cast<double>(rss_growth_bytes) / static_cast<double>(fired)
                     : 0.0;
  }
};

/// The saturated transmitter's run: every entry that fires appends the
/// next frame's completion one serialization time past the tail, the way
/// Nic::transmit extends its in-flight run, until `entries` have been
/// admitted. The capture carries a pointer plus a WireFrame-sized payload,
/// like the NIC's completion closure.
struct SaturatedPort {
  netsim::Scheduler* sched = nullptr;
  netsim::BatchId run{};
  netsim::TimePoint tail{};
  std::size_t admitted = 0;
  std::size_t limit = 0;
  std::uint64_t fired = 0;

  struct Completion {
    SaturatedPort* port;
    void* frame[3] = {};
    void operator()() const { port->complete(); }
  };

  static constexpr netsim::Duration kSerialization = netsim::microseconds(120);

  void complete() {
    ++fired;
    if (admitted == limit) return;
    netsim::Scheduler::TimedEntry entry;
    tail += kSerialization;
    entry.when = tail;
    entry.fn = Completion{this};
    if (sched->try_extend_run(run, std::move(entry))) ++admitted;
  }
};

SaturatedResult saturated_run_in_process(std::size_t entries, std::size_t backlog) {
  netsim::Scheduler sched;
  SaturatedPort port;
  port.sched = &sched;
  port.limit = entries;
  const std::uint64_t rss_before = bench::peak_rss_bytes();
  const auto start = std::chrono::steady_clock::now();
  std::vector<netsim::Scheduler::TimedEntry> burst(backlog);
  for (auto& e : burst) {
    port.tail += SaturatedPort::kSerialization;
    e.when = port.tail;
    e.fn = SaturatedPort::Completion{&port};
  }
  port.admitted = backlog;
  port.run = sched.schedule_run_at(burst);
  sched.run();
  SaturatedResult out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.fired = port.fired;
  const std::uint64_t rss_after = bench::peak_rss_bytes();
  out.rss_growth_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
  return out;
}

/// Runs the cell in a forked child, so the peak-RSS growth is the cell's
/// own and not hidden by memory an earlier cell left resident. A failed
/// fork or child reports fired == 0.
SaturatedResult saturated_run(std::size_t entries, std::size_t backlog) {
  return bench::run_in_child<SaturatedResult>(
      [&] { return saturated_run_in_process(entries, backlog); });
}

struct Comparison {
  const char* workload;
  WorkloadResult baseline;
  WorkloadResult indexed;
  [[nodiscard]] double speedup() const {
    return baseline.events_per_sec() > 0
               ? indexed.events_per_sec() / baseline.events_per_sec()
               : 0.0;
  }
};

void print(const Comparison& c) {
  std::printf("%-12s baseline %12.0f ev/s   indexed %12.0f ev/s   speedup %.2fx\n",
              c.workload, c.baseline.events_per_sec(), c.indexed.events_per_sec(),
              c.speedup());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t population = smoke ? 1024 : 65536;
  const std::size_t rounds = smoke ? 100 : 20000;
  const std::size_t fires = smoke ? 20000 : 2000000;
  const std::size_t broadcasts = smoke ? 4000 : 200000;
  const std::size_t fanout = 32;       // a well-populated LAN segment
  const std::size_t cancel_every = 4;  // every 4th flood pruned before firing
  const int reps = smoke ? 1 : 3;

  // First, before any other cell has grown this process's heap: the
  // forked child then starts from a near-empty heap, and any run-store
  // growth shows up in its peak RSS.
  const std::size_t saturated_entries = smoke ? 1000000 : 8000000;
  const std::size_t saturated_backlog = 64;
  const SaturatedResult saturated = saturated_run(saturated_entries, saturated_backlog);

  // Best-of-N to shake scheduler noise out of the wall clock.
  Comparison churn{"timer_churn", {}, {}};
  Comparison drain{"fire_all", {}, {}};
  // For batch_insert and timed_run both sides run on the indexed core;
  // "baseline" is the per-event insert loop the run API replaces.
  Comparison batch{"batch_insert", {}, {}};
  Comparison timed{"timed_run", {}, {}};
  const std::size_t bursts = smoke ? 8000 : 400000;
  const std::size_t burst_len = 6;  // an 8 KB write's fragment train
  const netsim::Duration delivery = netsim::microseconds(5);
  const netsim::Duration serialization = netsim::microseconds(120);
  for (int r = 0; r < reps; ++r) {
    const auto b1 = timer_churn<netsim::BaselineScheduler>(population, rounds);
    const auto i1 = timer_churn<netsim::Scheduler>(population, rounds);
    const auto b2 = fire_all<netsim::BaselineScheduler>(fires);
    const auto i2 = fire_all<netsim::Scheduler>(fires);
    const auto b3 = run_insert<false>(broadcasts, fanout, cancel_every, delivery, {},
                                      delivery);
    const auto i3 = run_insert<true>(broadcasts, fanout, cancel_every, delivery, {},
                                     delivery);
    const auto b4 = run_insert<false>(bursts, burst_len, cancel_every, serialization,
                                      serialization, serialization * 16);
    const auto i4 = run_insert<true>(bursts, burst_len, cancel_every, serialization,
                                     serialization, serialization * 16);
    if (r == 0 || b1.seconds < churn.baseline.seconds) churn.baseline = b1;
    if (r == 0 || i1.seconds < churn.indexed.seconds) churn.indexed = i1;
    if (r == 0 || b2.seconds < drain.baseline.seconds) drain.baseline = b2;
    if (r == 0 || i2.seconds < drain.indexed.seconds) drain.indexed = i2;
    if (r == 0 || b3.seconds < batch.baseline.seconds) batch.baseline = b3;
    if (r == 0 || i3.seconds < batch.indexed.seconds) batch.indexed = i3;
    if (r == 0 || b4.seconds < timed.baseline.seconds) timed.baseline = b4;
    if (r == 0 || i4.seconds < timed.indexed.seconds) timed.indexed = i4;
  }
  print(churn);
  print(drain);
  print(batch);
  print(timed);
  std::printf("%-12s %12.0f ev/s   peak-RSS growth %.2f B/fired entry (%zu entries, "
              "backlog %zu)\n",
              "saturated", saturated.events_per_sec(), saturated.growth_per_entry(),
              saturated_entries, saturated_backlog);

  // The run cells fired events on both sides; the saturated run fired
  // every entry it admitted with its peak RSS flat. A run store that holds
  // only its backlog measures ~0 B per fired entry, one that keeps every
  // fired entry's callback, time and order ~80 B.
  constexpr double kMaxGrowthPerEntry = 8.0;
  bench::Guards guards;
  guards.at_least("batch_insert.per_event_fired", static_cast<double>(batch.baseline.fired),
                  1);
  guards.at_least("batch_insert.batch_fired", static_cast<double>(batch.indexed.fired), 1);
  guards.at_least("timed_run.per_event_fired", static_cast<double>(timed.baseline.fired),
                  1);
  guards.at_least("timed_run.run_fired", static_cast<double>(timed.indexed.fired), 1);
  guards.holds("saturated_run.fired", static_cast<double>(saturated.fired),
               static_cast<double>(saturated_entries), "0 when its child failed");
  guards.at_most("saturated_run.rss_growth_per_entry", saturated.growth_per_entry(),
                 kMaxGrowthPerEntry,
                 "0 where RSS is hidden; a store that keeps its history: ~80");

  std::FILE* f = std::fopen("BENCH_scheduler.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scheduler.json\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"experiment\": \"scheduler_core\",\n"
      "  \"smoke\": %s,\n"
      "  \"timer_churn\": {\"population\": %zu, \"rounds\": %zu,\n"
      "    \"baseline_events_per_sec\": %.0f, \"indexed_events_per_sec\": %.0f,\n"
      "    \"speedup\": %.3f},\n"
      "  \"fire_all\": {\"count\": %zu,\n"
      "    \"baseline_events_per_sec\": %.0f, \"indexed_events_per_sec\": %.0f,\n"
      "    \"speedup\": %.3f},\n"
      "  \"batch_insert\": {\"broadcasts\": %zu, \"fanout\": %zu, "
      "\"cancel_every\": %zu,\n"
      "    \"per_event_events_per_sec\": %.0f, \"batch_events_per_sec\": %.0f,\n"
      "    \"speedup\": %.3f},\n"
      "  \"timed_run\": {\"bursts\": %zu, \"burst_len\": %zu, "
      "\"cancel_every\": %zu,\n"
      "    \"per_event_events_per_sec\": %.0f, \"run_events_per_sec\": %.0f,\n"
      "    \"speedup\": %.3f},\n"
      "  \"saturated_run\": {\"entries\": %zu, \"backlog\": %zu, "
      "\"events_per_sec\": %.0f, \"rss_growth_bytes\": %llu, "
      "\"rss_growth_per_entry\": %.3f}\n"
      "}\n",
      smoke ? "true" : "false", population, rounds,
      churn.baseline.events_per_sec(), churn.indexed.events_per_sec(),
      churn.speedup(), fires, drain.baseline.events_per_sec(),
      drain.indexed.events_per_sec(), drain.speedup(), broadcasts, fanout,
      cancel_every, batch.baseline.events_per_sec(), batch.indexed.events_per_sec(),
      batch.speedup(), bursts, burst_len, cancel_every,
      timed.baseline.events_per_sec(), timed.indexed.events_per_sec(),
      timed.speedup(), saturated_entries, saturated_backlog, saturated.events_per_sec(),
      static_cast<unsigned long long>(saturated.rss_growth_bytes),
      saturated.growth_per_entry());
  std::fclose(f);
  std::printf("wrote BENCH_scheduler.json\n");
  return guards.status();
}
