// ParallelRunner: conservative lockstep execution of per-shard Schedulers.
//
// Time advances in ROUNDS. Each round:
//
//   1. Every shard drains its inbound mailboxes (all producers are
//      quiescent, so the drain sees every frame emitted in earlier rounds
//      and nothing else), scheduling the frames into its local queue at
//      their producer-computed delivery times.
//   2. One thread (the barrier's serial completion) computes the next
//      window end  E = min(target, Tmin + L - 1ns)  where Tmin is the
//      earliest pending event across ALL shards and L is the cell's
//      lookahead -- the minimum propagation delay over every cut segment.
//   3. Every shard runs run_until(E) independently.
//
// Safety: an event executed in the window fires at some t >= Tmin, so any
// frame it relays across a cut is delivered at t + propagation >= Tmin + L
// > E -- strictly beyond the window. No shard can ever receive a frame in
// its past, which is exactly the conservative-lookahead contract; the
// inject_remote assert enforces it. Cells with no cut segments (one shard,
// or lookahead unset) collapse to a single window to the target.
//
// Determinism: the round/window sequence is a pure function of the
// simulation state -- Tmin and L do not depend on how shards are mapped to
// threads -- and within a round shards touch disjoint state (drains write
// only the draining shard's replicas; producers are parked at the
// barrier). So every shard executes the identical event sequence whether
// the runner uses 1 worker or 8, which is what the thread-count
// independence property test proves end to end. Every thread count runs
// the one round loop: worker 0 is the caller, so with threads == 1 no
// thread is spawned and the caller runs every shard against a
// one-participant barrier.
#pragma once

#include <cstdint>
#include <vector>

#include "src/netsim/shard.h"
#include "src/netsim/time.h"

namespace ab::netsim {

class ParallelRunner {
 public:
  struct Options {
    /// Worker threads, the caller included. Clamped to [1, shards]; 1
    /// spawns no thread.
    int threads = 1;
    /// Conservative lookahead: minimum propagation delay across cut
    /// segments. <= 0 means "no cross-shard coupling" (single window).
    /// A cell WITH cut segments must set this strictly positive.
    Duration lookahead{};
  };

  ParallelRunner(std::vector<Shard*> shards, Options options);

  /// Advances every shard to exactly `target` (events <= target executed,
  /// clocks == target), honoring the conservative windows. Callable
  /// repeatedly; frames relayed by target-time events stay in their
  /// mailboxes and are drained by the next call's first round.
  void run_until(TimePoint target);

  /// run_until(now of shard 0 + d) -- all shard clocks agree between calls.
  void run_for(Duration d);

  /// Synchronization rounds executed so far (telemetry: the bench reports
  /// rounds per simulated second to show barrier amortization).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  [[nodiscard]] const std::vector<Shard*>& shards() const { return shards_; }

 private:
  /// Computes the end of the next window: min(target, Tmin + lookahead -
  /// 1ns), saturating; `target` when every queue is empty or there is no
  /// cross-shard coupling. Requires mailboxes drained (Tmin must see every
  /// deliverable frame).
  [[nodiscard]] TimePoint next_window(TimePoint target) const;

  std::vector<Shard*> shards_;
  Options options_;
  std::uint64_t rounds_ = 0;

  // Round state: written only by the barrier's serial completion, read by
  // workers after the barrier -- the barrier's happens-before orders both.
  TimePoint window_end_{};
  TimePoint target_{};
  bool done_ = false;
  int phase_ = 0;
};

}  // namespace ab::netsim
