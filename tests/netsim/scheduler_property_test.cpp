// Determinism property test for the scheduler rewrite: seeded random
// programs of interleaved schedule_at / schedule_after / schedule_run
// (monotone timed runs, equal-time ones included) / try_extend_run /
// cancel (single ids and whole BatchId runs) / run_until / step / run are
// executed against both cores -- the indexed 4-ary heap (Scheduler) and
// the original priority_queue + live-set core (BaselineScheduler), whose
// observable contract is the oracle. The baseline has no run API, which
// is the point: a timed run is DEFINED as k individual events at its k
// times (an equal-time run as k individual same-time events), and an
// accepted run extension as one schedule_at at that moment, so the oracle
// schedules k events and cancels k ids where the indexed core takes one
// insert and one BatchId cancel. Firing order, the clock after every op,
// pending() after every op and every extension's accept/reject must be
// identical, including events scheduled from inside callbacks, budgets
// that split a run, and cancels of already-fired ids. A large share of the schedules
// and children are zero-delay (the indexed core's FIFO beside the heap),
// many cancels hit recent ids (so zero-delay events die while pending),
// and extensions run up to 200 appends, some from inside the run's own
// entries, so run compaction and run-pool reuse are checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "src/netsim/baseline_scheduler.h"
#include "src/netsim/scheduler.h"
#include "src/util/rng.h"

namespace ab::netsim {
namespace {

struct Op {
  enum Kind {
    kSchedule,
    kScheduleRun,  ///< monotone timed run (schedule_run_at)
    kExtendRun,    ///< try_extend_run appends to a run handle
    kCancel,
    kCancelBatch,
    kRunUntil,
    kStep,
    kRunBudget
  };
  Kind kind = kSchedule;
  std::int64_t delay_us = 0;   ///< kSchedule: delay (may be negative);
                               ///< kRunUntil: window
  bool spawn_child = false;    ///< kSchedule: callback schedules a child event
  std::int64_t child_delay_us = 0;
  /// kSchedule with a child: the callback then cancels the id issued this
  /// many ids back (0: its own child), often a pending zero-delay event.
  bool child_cancels = false;
  std::size_t child_cancel_back = 0;
  /// kScheduleRun: sorted delays, one per entry (may start negative; none
  /// exercises the no-op).
  std::vector<std::int64_t> run_delays_us;
  std::size_t cancel_sel = 0;  ///< kCancel/kCancelBatch/kExtendRun: index
                               ///< into issued handles (mod size)
  bool recent = false;         ///< pick among the newest few handles instead
  std::size_t budget = 0;      ///< kRunBudget: max events
  /// kExtendRun: one offset per append from the run's tail time at that
  /// moment (negative: non-monotone, must be rejected).
  std::vector<std::int64_t> extend_steps_us;
  /// kExtendRun: appends made at op time; each appended entry that fires
  /// then makes the next one from inside the run until all are tried.
  std::size_t extend_outside = 0;
};

std::vector<Op> generate_program(std::uint64_t seed, int length) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(length));
  for (int i = 0; i < length; ++i) {
    Op op;
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 33) {
      op.kind = Op::kSchedule;
      // Often zero-delay (the FIFO beside the heap), otherwise future or
      // occasionally negative to exercise the clamp.
      op.delay_us = rng.chance(0.3) ? 0
                                    : static_cast<std::int64_t>(rng.uniform(0, 2100)) - 100;
      op.spawn_child = rng.chance(0.4);
      op.child_delay_us =
          rng.chance(0.4) ? 0 : static_cast<std::int64_t>(rng.uniform(0, 500));
      op.child_cancels = rng.chance(0.3);
      op.child_cancel_back = static_cast<std::size_t>(rng.uniform(0, 3));
    } else if (roll < 41) {
      // An equal-time run: the flood fan-out shape.
      op.kind = Op::kScheduleRun;
      const std::int64_t delay_us = static_cast<std::int64_t>(rng.uniform(0, 2100)) - 100;
      op.run_delays_us.assign(static_cast<std::size_t>(rng.uniform(0, 5)), delay_us);
    } else if (roll < 48) {
      op.kind = Op::kScheduleRun;
      const auto size = static_cast<std::size_t>(rng.uniform(0, 5));
      for (std::size_t e = 0; e < size; ++e) {
        op.run_delays_us.push_back(static_cast<std::int64_t>(rng.uniform(0, 2100)) -
                                   100);
      }
      // The API takes non-decreasing times; sorting keeps random draws
      // valid while exercising equal-time pairs.
      std::sort(op.run_delays_us.begin(), op.run_delays_us.end());
    } else if (roll < 54) {
      op.kind = Op::kExtendRun;
      op.cancel_sel = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
      op.recent = rng.chance(0.8);  // mostly a run that is still live
      const auto count = static_cast<std::size_t>(rng.uniform(1, 200));
      for (std::size_t e = 0; e < count; ++e) {
        op.extend_steps_us.push_back(
            rng.chance(0.05) ? -static_cast<std::int64_t>(rng.uniform(1, 20))
                             : static_cast<std::int64_t>(rng.uniform(0, 40)));
      }
      op.extend_outside = rng.chance(0.5)
                              ? count
                              : static_cast<std::size_t>(
                                    rng.uniform(1, std::min<std::size_t>(count, 8)));
    } else if (roll < 67) {
      op.kind = Op::kCancel;
      op.cancel_sel = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
      op.recent = rng.chance(0.5);
    } else if (roll < 74) {
      op.kind = Op::kCancelBatch;
      op.cancel_sel = static_cast<std::size_t>(rng.uniform(0, 1 << 20));
      op.recent = rng.chance(0.5);
    } else if (roll < 85) {
      op.kind = Op::kRunUntil;
      op.delay_us = static_cast<std::int64_t>(rng.uniform(0, 3000));
    } else if (roll < 95) {
      op.kind = Op::kStep;
    } else {
      op.kind = Op::kRunBudget;
      op.budget = static_cast<std::size_t>(rng.uniform(0, 5));
    }
    ops.push_back(op);
  }
  return ops;
}

/// Everything observable about one execution.
struct Observation {
  std::vector<int> fired;              ///< event labels in firing order
  std::vector<std::int64_t> clock_ns;  ///< now() after every op
  std::vector<std::size_t> pending;    ///< pending() after every op
  std::vector<bool> extended;          ///< each append attempt's verdict
  bool empty_at_end = false;
  std::uint64_t executed = 0;
};

/// Index of the handle an op selects: any issued handle, or one of the
/// newest few (which are likely still pending).
std::size_t pick(std::size_t size, std::size_t sel, bool recent) {
  if (!recent) return sel % size;
  return size - 1 - sel % std::min<std::size_t>(size, 4);
}

/// One kExtendRun op in flight: which run it appends to, its offsets, and
/// how many appends it has tried. Appended entries that fire make the
/// next attempt, so its state outlives the op.
struct ExtendChain {
  std::size_t handle = 0;
  std::vector<std::int64_t> steps_us;
  std::size_t outside = 0;
  std::size_t next = 0;
  int first_label = 0;
  [[nodiscard]] bool continues_inside() const {
    return next >= outside && next < steps_us.size();
  }
};

/// Run adapter for the indexed core: the real schedule_run_at /
/// try_extend_run / BatchId-cancel API. Each handle remembers its run's
/// tail time, which extension offsets count from.
struct IndexedBatchOps {
  struct Handle {
    BatchId id;
    TimePoint tail{};
  };
  std::vector<Handle> handles;
  std::deque<ExtendChain> chains;

  void cancel(Scheduler& sched, std::size_t sel, bool recent) {
    if (!handles.empty()) sched.cancel(handles[pick(handles.size(), sel, recent)].id);
  }

  /// One schedule_run_at; the handle joins the pool BatchId cancels and
  /// extensions draw from.
  void schedule_run(Scheduler& sched, Observation& obs,
                    const std::vector<std::int64_t>& delays_us, int first_label) {
    std::vector<Scheduler::TimedEntry> entries;
    TimePoint tail{};
    for (std::size_t i = 0; i < delays_us.size(); ++i) {
      const int label = first_label + static_cast<int>(i);
      Scheduler::TimedEntry e;
      e.when = sched.now() + microseconds(delays_us[i]);
      tail = std::max(e.when, sched.now());  // the run's clamped last time
      e.fn = [&obs, label] { obs.fired.push_back(label); };
      entries.push_back(std::move(e));
    }
    handles.push_back(Handle{sched.schedule_run_at(entries), tail});
  }

  void extend(Scheduler& sched, Observation& obs, const Op& op, int first_label) {
    if (handles.empty()) return;
    ExtendChain& chain = chains.emplace_back();
    chain.handle = pick(handles.size(), op.cancel_sel, op.recent);
    chain.steps_us = op.extend_steps_us;
    chain.outside = op.extend_outside;
    chain.first_label = first_label;
    while (chain.next < chain.outside) append(sched, obs, chain);
  }

  /// One append attempt, from outside the run or from one of its entries.
  void append(Scheduler& sched, Observation& obs, ExtendChain& chain) {
    const std::size_t i = chain.next++;
    Handle& h = handles[chain.handle];
    const int label = chain.first_label + static_cast<int>(i);
    Scheduler::TimedEntry e;
    e.when = h.tail + microseconds(chain.steps_us[i]);
    const TimePoint when = e.when;
    e.fn = [this, &sched, &obs, &chain, label] {
      obs.fired.push_back(label);
      if (chain.continues_inside()) append(sched, obs, chain);
    };
    const bool ok = sched.try_extend_run(h.id, std::move(e));
    obs.extended.push_back(ok);
    if (ok) h.tail = when;
  }
};

/// Run adapter for the baseline oracle, which has no run API: a run IS k
/// individual events by definition, so schedule k events and cancel all
/// their ids -- the semantic contract the indexed core must match. Each
/// group also models what try_extend_run accepts: a run that is not
/// cancelled and has an entry still unfired, and a time no earlier than
/// its tail.
struct BaselineBatchOps {
  struct Group {
    std::vector<BaselineEventId> ids;
    std::size_t fired = 0;
    bool cancelled = false;
    TimePoint tail{};
  };
  std::deque<Group> groups;
  std::deque<ExtendChain> chains;

  void cancel(BaselineScheduler& sched, std::size_t sel, bool recent) {
    if (groups.empty()) return;
    Group& g = groups[pick(groups.size(), sel, recent)];
    for (const BaselineEventId id : g.ids) sched.cancel(id);
    g.cancelled = true;
  }

  /// Timed-run oracle: a run IS k individual events at its k times, so
  /// schedule k events (negative delays clamp exactly like the run's
  /// per-entry clamp) and cancel all their ids as one group.
  void schedule_run(BaselineScheduler& sched, Observation& obs,
                    const std::vector<std::int64_t>& delays_us, int first_label) {
    Group& g = groups.emplace_back();
    for (std::size_t i = 0; i < delays_us.size(); ++i) {
      const int label = first_label + static_cast<int>(i);
      g.tail = std::max(sched.now() + microseconds(delays_us[i]), sched.now());
      g.ids.push_back(sched.schedule_after(microseconds(delays_us[i]), [&obs, &g, label] {
        g.fired += 1;
        obs.fired.push_back(label);
      }));
    }
  }

  void extend(BaselineScheduler& sched, Observation& obs, const Op& op,
              int first_label) {
    if (groups.empty()) return;
    ExtendChain& chain = chains.emplace_back();
    chain.handle = pick(groups.size(), op.cancel_sel, op.recent);
    chain.steps_us = op.extend_steps_us;
    chain.outside = op.extend_outside;
    chain.first_label = first_label;
    while (chain.next < chain.outside) append(sched, obs, chain);
  }

  /// An accepted append IS one schedule_at at that moment; a rejected one
  /// schedules nothing.
  void append(BaselineScheduler& sched, Observation& obs, ExtendChain& chain) {
    const std::size_t i = chain.next++;
    Group& g = groups[chain.handle];
    const int label = chain.first_label + static_cast<int>(i);
    const TimePoint when = g.tail + microseconds(chain.steps_us[i]);
    const bool live = !g.cancelled && g.fired < g.ids.size();
    const bool ok = live && when >= g.tail;
    obs.extended.push_back(ok);
    if (!ok) return;
    g.tail = when;
    g.ids.push_back(sched.schedule_at(when, [this, &sched, &obs, &chain, &g, label] {
      g.fired += 1;
      obs.fired.push_back(label);
      if (chain.continues_inside()) append(sched, obs, chain);
    }));
  }
};

template <typename SchedulerT>
Observation execute(const std::vector<Op>& ops) {
  using Id = decltype(std::declval<SchedulerT&>().schedule_after(Duration{}, [] {}));
  SchedulerT sched;
  Observation obs;
  std::vector<Id> ids;
  std::conditional_t<std::is_same_v<SchedulerT, Scheduler>, IndexedBatchOps,
                     BaselineBatchOps>
      batches;

  int label = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kSchedule: {
        const int this_label = label++;
        const int child_label = label++;
        if (op.spawn_child) {
          const auto child_delay = microseconds(op.child_delay_us);
          const bool cancels = op.child_cancels;
          const std::size_t back = op.child_cancel_back;
          ids.push_back(sched.schedule_after(
              microseconds(op.delay_us),
              [&obs, &sched, &ids, this_label, child_label, child_delay, cancels,
               back] {
                obs.fired.push_back(this_label);
                ids.push_back(sched.schedule_after(
                    child_delay,
                    [&obs, child_label] { obs.fired.push_back(child_label); }));
                if (cancels && back < ids.size()) sched.cancel(ids[ids.size() - 1 - back]);
              }));
        } else {
          ids.push_back(sched.schedule_after(
              microseconds(op.delay_us),
              [&obs, this_label] { obs.fired.push_back(this_label); }));
        }
        break;
      }
      case Op::kScheduleRun: {
        const int first_label = label;
        label += static_cast<int>(op.run_delays_us.size());
        batches.schedule_run(sched, obs, op.run_delays_us, first_label);
        break;
      }
      case Op::kExtendRun: {
        const int first_label = label;
        label += static_cast<int>(op.extend_steps_us.size());
        batches.extend(sched, obs, op, first_label);
        break;
      }
      case Op::kCancel:
        if (!ids.empty()) sched.cancel(ids[pick(ids.size(), op.cancel_sel, op.recent)]);
        break;
      case Op::kCancelBatch:
        batches.cancel(sched, op.cancel_sel, op.recent);
        break;
      case Op::kRunUntil:
        sched.run_until(sched.now() + microseconds(op.delay_us));
        break;
      case Op::kStep:
        sched.step();
        break;
      case Op::kRunBudget:
        sched.run(op.budget);
        break;
    }
    obs.clock_ns.push_back(sched.now().time_since_epoch().count());
    obs.pending.push_back(sched.pending());
  }
  sched.run();  // drain
  obs.empty_at_end = sched.empty();
  obs.executed = sched.executed();
  return obs;
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, RandomProgramsFireIdenticallyOnBothCores) {
  const std::vector<Op> program = generate_program(GetParam(), 400);
  const Observation baseline = execute<BaselineScheduler>(program);
  const Observation indexed = execute<Scheduler>(program);

  EXPECT_EQ(baseline.fired, indexed.fired) << "seed " << GetParam();
  EXPECT_EQ(baseline.clock_ns, indexed.clock_ns) << "seed " << GetParam();
  EXPECT_EQ(baseline.pending, indexed.pending) << "seed " << GetParam();
  EXPECT_EQ(baseline.extended, indexed.extended) << "seed " << GetParam();
  EXPECT_EQ(baseline.executed, indexed.executed) << "seed " << GetParam();
  EXPECT_TRUE(baseline.empty_at_end);
  EXPECT_TRUE(indexed.empty_at_end);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

// Equal-time FIFO at scale: many events on one timestamp interleaved with
// cancels must fire in exact submission order on both cores.
TEST(SchedulerEquivalenceFifo, EqualTimestampsKeepSubmissionOrderUnderCancellation) {
  constexpr int kEvents = 500;
  util::Rng rng(7);
  std::vector<bool> cancel_mask;
  for (int i = 0; i < kEvents; ++i) cancel_mask.push_back(rng.chance(0.4));

  const auto run = [&](auto sched) {
    std::vector<int> fired;
    using Id = decltype(sched.schedule_after(Duration{}, [] {}));
    std::vector<Id> ids;
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(
          sched.schedule_after(milliseconds(5), [&fired, i] { fired.push_back(i); }));
    }
    for (int i = 0; i < kEvents; ++i) {
      if (cancel_mask[static_cast<std::size_t>(i)]) {
        sched.cancel(ids[static_cast<std::size_t>(i)]);
      }
    }
    sched.run();
    return fired;
  };

  const std::vector<int> baseline = run(BaselineScheduler{});
  const std::vector<int> indexed = run(Scheduler{});
  EXPECT_EQ(baseline, indexed);
  // And the order is the submission order of the survivors.
  std::vector<int> survivors;
  for (int i = 0; i < kEvents; ++i) {
    if (!cancel_mask[static_cast<std::size_t>(i)]) survivors.push_back(i);
  }
  EXPECT_EQ(indexed, survivors);
}

// Equal-time runs mixed with singles on ONE timestamp, some runs cancelled
// wholesale: the surviving labels must fire in exact submission order on
// both cores (the run occupying its k order numbers in the FIFO).
TEST(SchedulerEquivalenceFifo, BatchRunsKeepSubmissionOrderAmongSingles) {
  constexpr int kGroups = 120;
  util::Rng rng(11);
  std::vector<std::size_t> group_size;  // 0: single event; >0: run of k
  std::vector<bool> cancel_mask;
  for (int g = 0; g < kGroups; ++g) {
    group_size.push_back(rng.chance(0.5) ? static_cast<std::size_t>(rng.uniform(1, 4))
                                         : 0);
    cancel_mask.push_back(rng.chance(0.35));
  }

  std::vector<int> expected;
  {
    int label = 0;
    for (int g = 0; g < kGroups; ++g) {
      const int n = group_size[static_cast<std::size_t>(g)] == 0
                        ? 1
                        : static_cast<int>(group_size[static_cast<std::size_t>(g)]);
      for (int i = 0; i < n; ++i, ++label) {
        if (!cancel_mask[static_cast<std::size_t>(g)]) expected.push_back(label);
      }
    }
  }

  // Indexed core: real runs.
  std::vector<int> indexed_fired;
  {
    Scheduler sched;
    std::vector<EventId> single_ids(static_cast<std::size_t>(kGroups));
    std::vector<BatchId> batch_ids(static_cast<std::size_t>(kGroups));
    int label = 0;
    for (int g = 0; g < kGroups; ++g) {
      const std::size_t k = group_size[static_cast<std::size_t>(g)];
      if (k == 0) {
        const int this_label = label++;
        single_ids[static_cast<std::size_t>(g)] = sched.schedule_after(
            milliseconds(5),
            [&indexed_fired, this_label] { indexed_fired.push_back(this_label); });
      } else {
        std::vector<Scheduler::TimedEntry> entries;
        for (std::size_t i = 0; i < k; ++i) {
          const int this_label = label++;
          entries.push_back({sched.now() + milliseconds(5), [&indexed_fired, this_label] {
                               indexed_fired.push_back(this_label);
                             }});
        }
        batch_ids[static_cast<std::size_t>(g)] = sched.schedule_run_at(entries);
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      if (!cancel_mask[static_cast<std::size_t>(g)]) continue;
      if (group_size[static_cast<std::size_t>(g)] == 0) {
        sched.cancel(single_ids[static_cast<std::size_t>(g)]);
      } else {
        sched.cancel(batch_ids[static_cast<std::size_t>(g)]);
      }
    }
    sched.run();
  }

  EXPECT_EQ(indexed_fired, expected);
}

}  // namespace
}  // namespace ab::netsim
