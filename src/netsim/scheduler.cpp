#include "src/netsim/scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/string_util.h"

namespace ab::netsim {

std::string time_to_string(TimePoint t) {
  return util::format("%.6fs", to_seconds(t.time_since_epoch()));
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  // Generations start at 1 so a hand-rolled EventId{small int} (gen 0)
  // can never match a live slot.
  slots_.back().gen = 1;
  return slot;
}

EventId Scheduler::schedule_at(TimePoint when, Callback fn) {
  if (!fn) throw std::invalid_argument("Scheduler: null callback");
  if (when < now_) when = now_;

  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const std::uint64_t order = next_order_++;
  if (when == now_) {
    // Zero delay: every FIFO entry shares when == now() and takes a larger
    // order than the one before it, so appending keeps the FIFO sorted and
    // no sift is needed.
    s.heap_pos = kInNowFifo;
    now_fifo_.push_back(NowEntry{order, slot, s.gen});
  } else {
    heap_push(HeapEntry{when, order, slot});
  }
  pending_ += 1;
  scheduled_ += 1;
  return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | slot};
}

EventId Scheduler::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

BatchId Scheduler::schedule_run_at(std::span<TimedEntry> entries) {
  if (entries.empty()) return BatchId{};  // null handle: cancelling is a no-op
  // Validate everything before admitting anything, so a bad entry cannot
  // leave a half-scheduled run behind.
  TimePoint prev = TimePoint::min();
  for (const TimedEntry& e : entries) {
    if (!e.fn) throw std::invalid_argument("Scheduler: null callback in run");
    if (e.when < prev) {
      throw std::invalid_argument("Scheduler: run times must be non-decreasing");
    }
    prev = e.when;
  }

  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  if (run_pool_.empty()) {
    s.run = std::make_unique<Run>();
  } else {
    s.run = std::move(run_pool_.back());
    run_pool_.pop_back();
  }
  // Each entry takes the next order number, so its key (when, order) is
  // what an individual schedule_at would have issued it. Clamping to now()
  // preserves monotonicity: a prefix of past times all clamp to now(), and
  // equal times take consecutive orders at one timestamp.
  Run& run = *s.run;
  run.entries.reserve(entries.size());
  for (TimedEntry& e : entries) {
    run.entries.push_back(
        RunEntry{std::max(e.when, now_), next_order_++, std::move(e.fn)});
  }
  // One heap entry keyed by the first entry, however many the run holds.
  heap_push(HeapEntry{run.entries.front().when, run.entries.front().order, slot});
  pending_ += entries.size();
  scheduled_ += entries.size();
  return BatchId{(static_cast<std::uint64_t>(s.gen) << 32) | slot};
}

bool Scheduler::try_extend_run(BatchId id, TimedEntry entry) {
  if (!entry.fn) throw std::invalid_argument("Scheduler: null callback in extend");
  const std::uint32_t slot = id_slot(id.seq);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A finished or cancelled run has a bumped generation; from inside the
  // run's own LAST entry the slot is already retired (pop_and_run frees it
  // before that entry fires), so self-extension past the end safely fails
  // into the caller's FIFO fallback.
  if (s.gen != id_gen(id.seq)) return false;
  Run* run = s.run.get();
  if (run == nullptr) return false;  // a single event's slot
  if (entry.when < run->entries.back().when) return false;  // would break monotonicity
  // Drop the fired prefix once it outweighs the unfired backlog: each
  // compaction moves at most as many entries as fired since the last one,
  // so the cost stays O(1) per entry and the storage O(backlog). The heap
  // key (the run's NEXT entry) is unchanged by both the move and the
  // append, so no re-sift either.
  if (run->next >= kCompactAfter && run->next * 2 >= run->entries.size()) {
    run->entries.erase(run->entries.begin(),
                       run->entries.begin() + static_cast<std::ptrdiff_t>(run->next));
    run->next = 0;
  }
  // No clamp needed: every unfired time of a pending run is >= now(), and
  // the appended time is >= the run's last time.
  run->entries.push_back(RunEntry{entry.when, next_order_++, std::move(entry.fn)});
  pending_ += 1;
  scheduled_ += 1;  // inserts_ unchanged: that is the whole point
  return true;
}

void Scheduler::cancel(EventId id) {
  const std::uint32_t slot = id_slot(id.seq);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // A live slot's generation matches the stamp in exactly one outstanding
  // id; firing or cancelling bumps it, so stale handles fall through here.
  // (Live generations are never 0, so null/forged ids miss too.)
  if (s.gen != id_gen(id.seq)) return;
  // An EventId is never issued for a run; a forged/wrapped one must not
  // unlink k entries while accounting for one.
  if (s.run != nullptr) return;
  pending_ -= 1;
  if (s.heap_pos == kInNowFifo) {
    // The FIFO entry stays where it is, dead by its generation stamp; only
    // the head must be live, so that is the one place to skip it.
    free_slot(slot);
    skip_dead_now_entries();
    return;
  }
  heap_remove(s.heap_pos);
  free_slot(slot);
}

void Scheduler::cancel(BatchId id) {
  const std::uint32_t slot = id_slot(id.seq);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != id_gen(id.seq)) return;
  if (s.run == nullptr) return;  // stale handle over a recycled single slot
  pending_ -= s.run->remaining();
  heap_remove(s.heap_pos);
  free_slot(slot);
}

void Scheduler::skip_dead_now_entries() {
  while (now_head_ < now_fifo_.size() &&
         slots_[now_fifo_[now_head_].slot].gen != now_fifo_[now_head_].gen) {
    ++now_head_;
  }
  if (now_head_ == now_fifo_.size()) {
    now_fifo_.clear();  // keeps capacity for the next burst
    now_head_ = 0;
  } else if (now_head_ >= 64 && now_head_ * 2 >= now_fifo_.size()) {
    // A cascade that keeps the FIFO non-empty (two interleaved zero-delay
    // chains) would otherwise grow it without bound.
    now_fifo_.erase(now_fifo_.begin(),
                    now_fifo_.begin() + static_cast<std::ptrdiff_t>(now_head_));
    now_head_ = 0;
  }
}

void Scheduler::heap_push(const HeapEntry& entry) {
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(entry);
  sift_up(pos, entry);
  inserts_ += 1;
}

void Scheduler::heap_place(std::uint32_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

void Scheduler::sift_up(std::uint32_t pos, const HeapEntry& entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!entry.earlier_than(heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, entry);
}

void Scheduler::sift_down(std::uint32_t pos, const HeapEntry& entry) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint64_t first = std::uint64_t{pos} * kArity + 1;
    if (first >= size) break;
    const auto last =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(first + kArity, size));
    auto best = static_cast<std::uint32_t>(first);
    for (std::uint32_t c = best + 1; c < last; ++c) {
      if (heap_[c].earlier_than(heap_[best])) best = c;
    }
    if (!heap_[best].earlier_than(entry)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, entry);
}

void Scheduler::heap_remove(std::uint32_t pos) {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  // Re-seat the displaced tail entry: it may need to move either way.
  if (pos > 0 && moved.earlier_than(heap_[(pos - 1) / kArity])) {
    sift_up(pos, moved);
  } else {
    sift_down(pos, moved);
  }
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // never hand out the unissuable generation
  s.fn = nullptr;
  if (s.run != nullptr) {
    // Clearing destroys a cancelled run's unfired callbacks now, so a
    // pooled run never carries anything into its next use.
    s.run->entries.clear();
    s.run->next = 0;
    if (s.run->entries.capacity() <= kMaxPooledCapacity) {
      run_pool_.push_back(std::move(s.run));
    } else {
      s.run.reset();
    }
  }
  free_.push_back(slot);
}

bool Scheduler::pop_and_run() {
  Callback fn;
  // The FIFO head is live and keyed (now(), order); the heap head is never
  // earlier than now(), so it goes first only at now() with a lower order.
  if (!now_empty() && (heap_.empty() || heap_[0].when != now_ ||
                       now_fifo_[now_head_].order < heap_[0].order)) {
    const std::uint32_t slot = now_fifo_[now_head_].slot;
    ++now_head_;
    fn = std::move(slots_[slot].fn);
    // Retired before running, like a heap single (see below).
    free_slot(slot);
    skip_dead_now_entries();
  } else if (!heap_.empty()) {
    const std::uint32_t slot = heap_[0].slot;
    now_ = heap_[0].when;
    Slot& s = slots_[slot];
    if (s.run != nullptr) {
      // One entry per pop: a run is observably k individual events, so a
      // budget or step() that splits it leaves the remainder pending, in
      // order. The slot is retired before the LAST entry runs, so a cancel
      // of the run's own BatchId from inside that entry is already a stale
      // no-op -- from any earlier entry it drops exactly the remaining
      // ones.
      Run& run = *s.run;
      fn = std::move(run.entries[run.next].fn);
      run.next += 1;
      if (run.remaining() == 0) {
        heap_remove(0);
        free_slot(slot);
      } else {
        // Re-key the head to the next entry's (time, order) -- the key an
        // individual schedule_at would have given it -- and re-seat it.
        // The new key is never earlier than the one just fired, so a
        // sift-down suffices.
        HeapEntry head = heap_[0];
        head.when = run.entries[run.next].when;
        head.order = run.entries[run.next].order;
        sift_down(0, head);
      }
    } else {
      heap_remove(0);
      // Retire the slot before running so a cancel of this event's own id
      // from inside the callback is already a stale no-op, and pending()
      // excludes the running event (matching the baseline core's
      // semantics).
      fn = std::move(s.fn);
      free_slot(slot);
    }
  } else {
    return false;
  }
  ++executed_;
  pending_ -= 1;
  fn();
  return true;
}

bool Scheduler::step() { return pop_and_run(); }

std::size_t Scheduler::run_until(TimePoint until) {
  std::size_t count = 0;
  // Neither the heap nor the FIFO head is ever a cancelled entry, so the
  // time bound is checked against real work.
  while (!empty() && peek_next_time() <= until) {
    pop_and_run();
    ++count;
  }
  if (now_ < until) now_ = until;
  return count;
}

std::size_t Scheduler::run_for(Duration d) { return run_until(now_ + d); }

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && pop_and_run()) ++count;
  return count;
}

}  // namespace ab::netsim
