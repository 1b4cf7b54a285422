// Cross-shard frame transport for the sharded parallel simulation core.
//
// A sharded cell splits one topology into regions, each driven by its own
// Scheduler on its own worker thread. A LAN whose bridges span two regions
// (a CUT segment) exists as one replica per region: the owning region's
// replica carries the frame (stats, tap, serialization) and RELAYS the wire
// bytes into a mailbox per consuming region; the consumer injects them into
// its local replica with LanSegment::inject_remote at the producer-computed
// delivery time.
//
// A mailbox is a plain vector that the round barrier hands over: exactly
// one producing shard appends to it during its window, and exactly one
// consuming shard empties it at the next round boundary, in the phase
// between two barrier waits of the parallel runner, while every producer
// is parked. The two sides never touch the vector at the same time, so the
// barrier's happens-before is the only synchronization it needs.
//
// Determinism: a shard drains its channels in registration order (the
// builder registers them in (cut segment, producer region) order), each
// channel in push order (the producer's own deterministic event order),
// and channels are strictly point-to-point -- so the injection sequence is
// a pure function of the simulation, independent of thread count or
// scheduling.
#pragma once

#include <cstddef>
#include <vector>

#include "src/netsim/scheduler.h"
#include "src/netsim/time.h"
#include "src/util/bytes.h"

namespace ab::netsim {

class LanSegment;

/// One frame crossing a shard boundary: the encoded wire bytes (WireFrames
/// are never shared across threads -- their lazy parse/encode caches are
/// unsynchronized) plus the absolute delivery time, computed producer-side
/// as transmit time + the cut segment's propagation delay.
struct RelayFrame {
  TimePoint deliver_at{};
  util::ByteBuffer wire;
};

/// One directed cross-shard conduit: frames relayed by the producing
/// region's owning replica of one cut segment, drained into `target` (the
/// consuming region's replica of that same segment).
class ShardChannel {
 public:
  explicit ShardChannel(LanSegment& target) : target_(&target) {}

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  /// Producer side (called from the owning replica's relay hook, on the
  /// producing shard's thread, inside its window): appends one frame.
  void push(TimePoint deliver_at, util::ByteView wire);

  /// Consumer side, at a round boundary only: injects every queued frame
  /// into the target replica in push order and empties the mailbox,
  /// keeping its capacity. Returns frames drained.
  std::size_t drain();

 private:
  LanSegment* target_;
  std::vector<RelayFrame> frames_;
};

/// One shard's view of the synchronization machinery: its Scheduler plus
/// the inbound channels feeding its cut-segment replicas. The parallel
/// runner drains and advances shards; the sharded topology builder wires
/// them.
class Shard {
 public:
  explicit Shard(Scheduler& scheduler) : scheduler_(&scheduler) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }

  /// Registers an inbound channel. Registration order IS drain order; the
  /// builder registers in (cut segment, producer region) order so drains
  /// are deterministic.
  void add_inbound(ShardChannel& channel) { inbound_.push_back(&channel); }

  /// Drains every inbound channel into its target replica. Must only run
  /// at a round boundary (producers quiescent). Returns frames drained.
  std::size_t drain();

  [[nodiscard]] const std::vector<ShardChannel*>& inbound() const { return inbound_; }

 private:
  Scheduler* scheduler_;
  std::vector<ShardChannel*> inbound_;
};

}  // namespace ab::netsim
