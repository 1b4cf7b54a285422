// Deterministic discrete-event scheduler.
//
// Events at equal timestamps fire in submission order (a monotonically
// increasing order number breaks ties), so every simulation in the test
// and bench suites is bit-for-bit reproducible. Every event -- single,
// run entry or zero-delay -- carries the key (when, order) an individual
// schedule_at would have issued it, and the next event to fire is always
// the smallest key pending; the stores below differ only in how cheaply
// they find it.
//
// The event core is an indexed 4-ary min-heap over a slot table:
//
//   * schedule is O(log n) with no per-event heap allocation -- slots are
//     recycled through a free list and the callback type keeps small
//     captures (a few pointers, a WireFrame) in inline storage;
//   * cancel is O(log n) and in-place: the handle's generation stamp is
//     checked against the slot, the slot is unlinked from the heap
//     immediately, and nothing dead is ever left in the heap -- no
//     tombstones to skip at pop time, no live-set hash lookups on the hot
//     path;
//   * pending()/empty() are exact by construction;
//   * schedule_run_at, the one way to schedule many events at once,
//     inserts a MONOTONE TIMED run -- k (time, callback) pairs with
//     non-decreasing times -- as ONE heap entry and one sift: the transmit
//     side's burst pattern (a NIC draining its queue, a processing element
//     pacing a fragment train) where the k completion times are known
//     upfront. Each entry stores its own (when, order, callback); the heap
//     entry is keyed by the next unfired one and re-keyed after each pop,
//     so interleaving with every other event is bit-identical to k
//     schedule_at calls. Equal times are the same-time case: k consecutive
//     order numbers at one timestamp. One BatchId cancel unlinks
//     everything still pending. try_extend_run appends to a live run and
//     drops its fired prefix as it goes, so a run's memory follows its
//     unfired backlog, not its history. Retired runs return to a
//     per-Scheduler pool with their capacity, so a steady stream of short
//     runs allocates nothing;
//   * a schedule_at whose clamped time equals now() skips the heap: it
//     joins a FIFO whose entries all share when == now() and take
//     increasing order numbers, so the FIFO is sorted by construction and
//     a pop takes its head unless the heap head sorts earlier. Cancel
//     stays generation-stamped; a cancelled FIFO entry is skipped when it
//     reaches the head, which is kept live, so it never delays the clock.
//
// A cancelled, fired, or never-issued EventId is recognized by its
// generation stamp, so stale cancels are harmless no-ops (timers race with
// the traffic that restarts them). src/netsim/baseline_scheduler.h keeps
// the previous priority_queue core as the ordering oracle for the
// determinism property test and as the microbench baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/netsim/time.h"
#include "src/util/inline_function.h"

namespace ab::netsim {

/// Handle for cancelling a scheduled event. Opaque: the low 32 bits are a
/// slot index, the high 32 bits the slot's generation at issue time, so a
/// handle stops matching the moment its event fires or is cancelled.
struct EventId {
  std::uint64_t seq = 0;
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Handle for cancelling (or extending) a whole run scheduled with
/// schedule_run_at. Encoded like an EventId (slot + generation stamp) but
/// deliberately a distinct type: a run is cancelled wholesale, never entry
/// by entry, and the stamp goes stale the moment the run's last entry fires
/// or the run is cancelled.
struct BatchId {
  std::uint64_t seq = 0;
  friend bool operator==(const BatchId&, const BatchId&) = default;
};

/// The simulator's event loop and clock.
class Scheduler {
 public:
  /// Inline capacity fits the datapath's delivery closures (this + NIC +
  /// WireFrame) and a moved-in std::function without touching the heap.
  using Callback = util::InlineFunction<void(), 48>;

  /// Current virtual time. Advances only while events run.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (clamped to now()).
  /// A clamped time equal to now() joins the zero-delay FIFO, not the heap
  /// (it fires in the same place either way; inserts() does not count it).
  EventId schedule_at(TimePoint when, Callback fn);

  /// Schedules `fn` after a delay relative to now().
  EventId schedule_after(Duration delay, Callback fn);

  /// One entry of a monotone timed run: an absolute firing time plus its
  /// callback. Produced by the transmit paths (NIC burst drain, TxBatch,
  /// ProcessingElement::submit_burst) whose completion times are computed
  /// upfront.
  struct TimedEntry {
    TimePoint when{};
    Callback fn;
  };

  /// Schedules every (time, callback) pair of `entries` (moved from) as
  /// one monotone timed run: a single heap entry, a single sift, one slot
  /// -- where k schedule_at calls would pay k of each. Times must be
  /// non-decreasing (std::invalid_argument otherwise, before any entry is
  /// admitted); each is clamped to now(). Entries fire one per pop at
  /// their own times, in order, with the FIFO key an individual
  /// schedule_at would have produced -- budgets, step(), run_until and
  /// events scheduled in between observe exactly k individual events. The
  /// whole remaining run cancels as a unit via the BatchId. An empty span
  /// returns the null BatchId; a null callback anywhere throws.
  BatchId schedule_run_at(std::span<TimedEntry> entries);

  /// Appends `entry` to a still-pending run -- the saturated-
  /// transmitter case where a frame arrives while a burst is in flight and
  /// its completion time lands past the run's tail, so the run can absorb
  /// it with NO new heap insert. The appended entry gets a fresh order
  /// number (it was admitted after everything already in the run), so
  /// interleaving with other same-time events is exactly what an
  /// individual schedule_at at that moment would have produced. The run
  /// drops its already-fired entries as it grows, so a run kept alive by
  /// extension holds its backlog, not its history.
  ///
  /// Returns false when the handle is stale (run finished or cancelled)
  /// or names a single event, or `entry.when` precedes the run's last
  /// time. The scheduler is then unchanged, but the entry is consumed
  /// either way: it is taken by value, so a rejected callback is destroyed
  /// on return and the caller must build a new one for its fallback. A
  /// null callback throws.
  bool try_extend_run(BatchId id, TimedEntry entry);

  /// Cancels a pending event in place. Cancelling an already-fired or
  /// unknown event is a harmless no-op (timers race with the traffic that
  /// restarts them) and leaves no bookkeeping behind.
  void cancel(EventId id);

  /// Cancels every still-unfired entry of a run in O(log n) -- one unlink,
  /// no matter how many entries remain. From inside one of the run's own
  /// callbacks this drops exactly the entries after the running one; after
  /// the last entry fires the stamp is stale and the cancel a no-op.
  void cancel(BatchId id);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= `until`, then advances the clock to
  /// `until`. Returns the number of events executed.
  std::size_t run_until(TimePoint until);

  /// run_until(now() + d).
  std::size_t run_for(Duration d);

  /// Runs until the queue is empty or `max_events` have executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] bool empty() const { return heap_.empty() && now_empty(); }
  /// Timestamp of the earliest pending event -- the shard horizon the
  /// parallel runner's conservative window computation reads between
  /// rounds. TimePoint::max() when the queue is empty (an idle shard
  /// never constrains its neighbors). Exact: the zero-delay FIFO's head is
  /// always live, so a non-empty FIFO means an event at now().
  [[nodiscard]] TimePoint peek_next_time() const {
    if (!now_empty()) return now_;
    return heap_.empty() ? TimePoint::max() : heap_.front().when;
  }
  /// Exact count of unfired events; every unfired entry of a run counts
  /// individually (a run is k events, not one).
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Heap insert operations performed: one per schedule_at past now(), one
  /// per run no matter how many entries it carries; zero-delay
  /// schedules (the FIFO) and run extensions insert nothing. scheduled()
  /// vs inserts() is the batching ratio the transmit-path benches guard.
  [[nodiscard]] std::uint64_t inserts() const { return inserts_; }
  /// Entries admitted in total (a run of k counts k) -- what
  /// inserts() would be if every entry were its own schedule_at call.
  [[nodiscard]] std::uint64_t scheduled() const { return scheduled_; }

 private:
  /// Heap arity. Quads trade a slightly deeper compare per sift-down level
  /// for half the tree depth and contiguous child cache lines.
  static constexpr std::uint32_t kArity = 4;

  /// The heap stores the full sort key next to the slot index, so sifting
  /// compares contiguous memory and never chases into the slot table (the
  /// slot is touched only at schedule / cancel / fire).
  struct HeapEntry {
    TimePoint when{};
    std::uint64_t order = 0;  ///< FIFO tiebreak for equal timestamps
    std::uint32_t slot = 0;

    [[nodiscard]] bool earlier_than(const HeapEntry& o) const {
      if (when != o.when) return when < o.when;
      return order < o.order;
    }
  };

  /// One entry of a run, with the key an individual schedule_at would have
  /// issued it.
  struct RunEntry {
    TimePoint when{};
    std::uint64_t order = 0;
    Callback fn;
  };

  /// A run: the entries of one schedule_run_at call plus any
  /// try_extend_run appends, fired front to back. Entries before
  /// `next` have fired (their callbacks are already moved out); the heap
  /// entry is keyed by entries[next]. try_extend_run compacts the fired
  /// prefix away once it outweighs the unfired backlog.
  struct Run {
    std::vector<RunEntry> entries;
    std::size_t next = 0;
    [[nodiscard]] std::size_t remaining() const { return entries.size() - next; }
  };

  struct Slot {
    std::uint32_t gen = 0;  ///< matches the EventId/BatchId stamp while live
    std::uint32_t heap_pos = 0;  ///< kInNowFifo: a zero-delay FIFO entry
    Callback fn;                 ///< single events
    std::unique_ptr<Run> run;    ///< non-null: this slot is a run
  };

  /// One zero-delay event: its slot and the slot's generation at issue, so
  /// an entry whose event was cancelled (the slot retired, maybe reused)
  /// is recognized as dead.
  struct NowEntry {
    std::uint64_t order = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  static constexpr std::uint32_t kInNowFifo = 0xFFFFFFFFu;
  /// A run compacts only once this many entries have fired, so short runs
  /// never pay for it.
  static constexpr std::size_t kCompactAfter = 16;
  /// Retired runs with more capacity than this are freed, not pooled, so
  /// one large burst (a NIC draining a long queue whole) does not pin its
  /// storage for the scheduler's lifetime.
  static constexpr std::size_t kMaxPooledCapacity = 256;

  [[nodiscard]] static std::uint32_t id_slot(std::uint64_t seq) {
    return static_cast<std::uint32_t>(seq & 0xFFFFFFFFu);
  }
  [[nodiscard]] static std::uint32_t id_gen(std::uint64_t seq) {
    return static_cast<std::uint32_t>(seq >> 32);
  }

  /// Pops a slot index off the free list (or grows the table).
  [[nodiscard]] std::uint32_t acquire_slot();

  [[nodiscard]] bool now_empty() const { return now_head_ == now_fifo_.size(); }
  /// Advances the FIFO head past cancelled entries, so the head is live
  /// (or the FIFO empty, its storage reset).
  void skip_dead_now_entries();

  /// Inserts `entry` and counts it in inserts().
  void heap_push(const HeapEntry& entry);
  void heap_place(std::uint32_t pos, const HeapEntry& entry);
  void sift_up(std::uint32_t pos, const HeapEntry& entry);
  void sift_down(std::uint32_t pos, const HeapEntry& entry);
  /// Unlinks the heap entry at `pos`, restoring the heap property.
  void heap_remove(std::uint32_t pos);
  /// Retires a slot: bumps its generation (invalidating outstanding ids),
  /// drops the callback, returns a run to the pool, and recycles the index.
  void free_slot(std::uint32_t slot);

  /// Pops and runs the next event; false when the queue is empty.
  bool pop_and_run();

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;      ///< 4-ary min-heap on (when, order)
  std::vector<std::uint32_t> free_;  ///< recycled slot indices
  std::vector<std::unique_ptr<Run>> run_pool_;  ///< retired runs, emptied
  /// Zero-delay events in order; [now_head_, size) is pending, the head
  /// live. Every live entry has when == now_: the clock cannot pass one.
  std::vector<NowEntry> now_fifo_;
  std::size_t now_head_ = 0;
  TimePoint now_{};
  std::uint64_t next_order_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t inserts_ = 0;    ///< heap insert ops (a run of k counts 1)
  std::uint64_t scheduled_ = 0;  ///< entries admitted (a run of k counts k)
  std::size_t pending_ = 0;  ///< unfired events (run entries counted each)
};

}  // namespace ab::netsim
