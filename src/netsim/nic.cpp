#include "src/netsim/nic.h"

#include <algorithm>

namespace ab::netsim {

Nic::Nic(Scheduler& scheduler, std::string name, ether::MacAddress mac)
    : scheduler_(&scheduler), name_(std::move(name)), mac_(mac) {}

Nic::~Nic() {
  // The transmit run's completion entries capture `this`; a NIC destroyed
  // with the run still pending (an arena teardown mid-burst) must pull
  // those entries back out of the scheduler or they fire into freed
  // memory. Only runs this NIC scheduled for itself are cancelled: a claim
  // merged into a TxBatch run (note_run) shares the run with other ports'
  // entries, which a wholesale cancel would strand. The burst's delivery
  // run needs no cancel -- its closures capture the segment and the shared
  // slot vector, never the NIC, and undeposited slots no-op.
  if (owns_run_ && run_remaining_ > 0) scheduler_->cancel(run_id_);
  if (segment_ != nullptr) segment_->detach_nic(*this);
}

void Nic::attach(LanSegment& segment) {
  detach();
  segment_ = &segment;
  segment.attach_nic(*this);
}

void Nic::detach() {
  // Detaching mid-simulation is safe against in-flight frames: the
  // segment's delivery walk re-checks attachment per receiver, so a NIC
  // removed between transmit and delivery -- or from a handler during the
  // walk itself -- is skipped, never touched.
  if (segment_ != nullptr) {
    segment_->detach_nic(*this);
    segment_ = nullptr;
  }
}

void Nic::set_promiscuous(bool on) {
  if (on == promiscuous_) return;
  if (segment_ != nullptr) segment_->unfile_nic(*this);
  promiscuous_ = on;
  if (segment_ != nullptr) segment_->file_nic(*this);
}

void Nic::set_station_ipv4(std::uint32_t ipv4) {
  if (ipv4 == station_ipv4_) return;
  if (segment_ != nullptr) segment_->unfile_nic(*this);
  station_ipv4_ = ipv4;
  if (segment_ != nullptr) segment_->file_nic(*this);
}

bool Nic::transmit(ether::WireFrame frame) {
  if (segment_ == nullptr || backlog() >= tx_queue_limit_) {
    stats_.tx_dropped += 1;
    return false;
  }
  // Validate here (not inside a scheduler event) so a malformed frame
  // throws at the call site. The bytes stay unbuilt: receivers share the
  // parse, so only a tap, relay, drop filter or capture ever encodes.
  frame.check_encodable();
  // Saturated transmitter with nothing queued ahead: this frame would sit
  // alone in the FIFO queue until the in-flight run's last completion,
  // then restart the transmitter at exactly run_tail_time_. Appending it
  // to the run at tail + serialization produces the identical timeline
  // with ZERO new heap inserts -- the saturated-flood case where every hop
  // stays at one insert. Any failure (stale run, FIFO order at stake)
  // falls through to the queue.
  if (transmitting_ && tx_queue_.empty() && run_remaining_ > 0) {
    const std::size_t wire_bytes = frame.wire_size();
    const TimePoint completes =
        run_tail_time_ + segment_->serialization_delay(wire_bytes);
    LanSegment* const paced_for = segment_;
    Scheduler::TimedEntry entry;
    entry.when = completes;
    entry.fn = [this, paced_for, frame] {
      run_remaining_ -= 1;
      if (segment_ == paced_for) segment_->broadcast(frame, this);
      if (run_remaining_ == 0) start_transmitter();
    };
    if (scheduler_->try_extend_run(run_id_, std::move(entry))) {
      run_remaining_ += 1;
      run_tail_time_ = completes;
      stats_.tx_frames += 1;
      stats_.tx_bytes += wire_bytes;
      return true;
    }
  }
  tx_queue_.push_back(std::move(frame));
  if (!transmitting_) start_transmitter();
  return true;
}

std::size_t Nic::transmit_burst(std::span<ether::WireFrame> frames) {
  // Per-frame admission as in transmit(): the queue takes a prefix of the
  // burst and tail-drops the rest.
  const std::size_t room =
      segment_ == nullptr || backlog() >= tx_queue_limit_ ? 0
                                                          : tx_queue_limit_ - backlog();
  const std::size_t admitted = std::min(frames.size(), room);
  // Validate every frame the queue will take before taking any, so a
  // malformed one throws at the call site with nothing queued or counted.
  for (std::size_t i = 0; i < admitted; ++i) frames[i].check_encodable();
  for (std::size_t i = 0; i < admitted; ++i) tx_queue_.push_back(std::move(frames[i]));
  stats_.tx_dropped += frames.size() - admitted;
  if (admitted > 0 && !transmitting_) start_transmitter();
  return admitted;
}

std::optional<Scheduler::TimedEntry> Nic::try_prepare(ether::WireFrame frame) {
  if (segment_ == nullptr || transmitting_ || !tx_queue_.empty()) return std::nullopt;
  frame.check_encodable();
  transmitting_ = true;
  const std::size_t wire_bytes = frame.wire_size();
  stats_.tx_frames += 1;
  stats_.tx_bytes += wire_bytes;
  LanSegment* const paced_for = segment_;
  Scheduler::TimedEntry entry;
  entry.when = scheduler_->now() + segment_->serialization_delay(wire_bytes);
  // The claim is a one-entry run from this NIC's point of view: the caller
  // schedules it (alone or merged into a TxBatch run) and reports the
  // handle back through note_run(); until then run_id_ is stale and an
  // extension attempt harmlessly fails into the FIFO queue.
  run_remaining_ = 1;
  run_id_ = BatchId{};
  owns_run_ = false;  // the caller's run; note_run() reports the handle
  run_tail_time_ = entry.when;
  entry.fn = [this, paced_for, frame = std::move(frame)] {
    run_remaining_ -= 1;
    if (segment_ == paced_for) segment_->broadcast(frame, this);
    if (run_remaining_ == 0) start_transmitter();
  };
  return entry;
}

void Nic::start_transmitter() {
  if (tx_queue_.empty() || segment_ == nullptr) {
    transmitting_ = false;
    run_remaining_ = 0;
    run_id_ = BatchId{};
    owns_run_ = false;
    return;
  }
  transmitting_ = true;
  LanSegment* const paced_for = segment_;
  if (tx_queue_.size() == 1) {
    // Single frame: one completion event at the time the self-rearming
    // chain always produced -- but issued as a one-entry timed run, so a
    // frame arriving while it serializes can extend it in place.
    ether::WireFrame frame = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    const std::size_t wire_bytes = frame.wire_size();
    const Duration ser = segment_->serialization_delay(wire_bytes);
    stats_.tx_frames += 1;
    stats_.tx_bytes += wire_bytes;
    run_remaining_ = 1;
    Scheduler::TimedEntry entry;
    entry.when = scheduler_->now() + ser;
    run_tail_time_ = entry.when;
    entry.fn = [this, paced_for, frame = std::move(frame)] {
      run_remaining_ -= 1;
      if (segment_ == paced_for) segment_->broadcast(frame, this);
      if (run_remaining_ == 0) start_transmitter();
    };
    drain_scratch_.clear();
    drain_scratch_.push_back(std::move(entry));
    run_id_ = scheduler_->schedule_run_at(drain_scratch_);
    owns_run_ = true;
    drain_scratch_.clear();
    return;
  }
  // Backlog: drain the whole queue as ONE monotone timed run, with the
  // matching deliveries as a SECOND shared run scheduled alongside -- a
  // k-frame burst costs two inserts where completion-then-broadcast cost
  // 1 + k. Completion times are the same back-to-back serialization chain
  // the per-frame transmitter produced; each completion entry snapshots
  // its receivers (prepare_broadcast: stats, tap, loss draws identical to
  // broadcast()) and deposits the receiver-run index for its delivery
  // entry, which fires at completion + propagation. The frames beyond the
  // first keep counting against tx_queue_limit_ through run_remaining_.
  // The entry that takes run_remaining_ to zero restarts the transmitter,
  // so frames queued mid-run (or a reattached segment's traffic) drain as
  // the next burst. Entries act only on the segment the burst was PACED
  // for: a NIC detached -- or detached and reattached elsewhere --
  // mid-burst skips the remaining broadcasts (depositing the no-run
  // sentinel keeps the delivery slots aligned) rather than deliver them at
  // another segment's wrong serialization times.
  drain_scratch_.clear();
  delivery_scratch_.clear();
  drain_scratch_.reserve(tx_queue_.size());
  delivery_scratch_.reserve(tx_queue_.size());
  // The previous burst's delivery closures may still hold the old slot
  // vector (deliveries trail completions by the propagation delay); leave
  // it to them and start a fresh one. With no holders left, reuse it.
  if (!burst_slots_ || burst_slots_.use_count() > 1) {
    burst_slots_ = std::make_shared<std::vector<std::uint32_t>>();
  }
  burst_slots_->assign(tx_queue_.size(), LanSegment::kNoPreparedRun);
  burst_cursor_ = 0;
  run_remaining_ = tx_queue_.size();
  const Duration propagation = paced_for->config().propagation;
  TimePoint completes = scheduler_->now();
  std::size_t slot = 0;
  while (!tx_queue_.empty()) {
    ether::WireFrame frame = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    const std::size_t wire_bytes = frame.wire_size();
    completes += segment_->serialization_delay(wire_bytes);
    stats_.tx_frames += 1;
    stats_.tx_bytes += wire_bytes;
    Scheduler::TimedEntry entry;
    entry.when = completes;
    entry.fn = [this, paced_for, frame = std::move(frame)] {
      run_remaining_ -= 1;
      (*burst_slots_)[burst_cursor_] = segment_ == paced_for
                                           ? paced_for->prepare_broadcast(frame, this)
                                           : LanSegment::kNoPreparedRun;
      burst_cursor_ += 1;
      if (run_remaining_ == 0) start_transmitter();
    };
    drain_scratch_.push_back(std::move(entry));
    Scheduler::TimedEntry delivery;
    delivery.when = completes + propagation;
    // No `this` capture: the delivery outlives any mid-flight detach (the
    // frame is already on the wire) and only needs the segment + slot.
    delivery.fn = [seg = paced_for, slots = burst_slots_, slot] {
      const std::uint32_t run = (*slots)[slot];
      if (run != LanSegment::kNoPreparedRun) seg->deliver_prepared(run);
    };
    delivery_scratch_.push_back(std::move(delivery));
    ++slot;
  }
  // Transmit run first, delivery run second: at equal timestamps (zero
  // propagation) a frame's completion still precedes its delivery, the
  // order the chain produced.
  run_id_ = scheduler_->schedule_run_at(drain_scratch_);
  owns_run_ = true;
  run_tail_time_ = completes;
  scheduler_->schedule_run_at(delivery_scratch_);
  drain_scratch_.clear();
  delivery_scratch_.clear();
}

void Nic::deliver(const ether::WireFrame& frame) {
  // ok() triggers the shared lazy decode: the first NIC on the segment pays
  // one parse + one CRC-32 check, every other receiver reuses the result.
  if (!frame.ok()) {
    stats_.rx_bad += 1;
    return;
  }
  const ether::Frame& parsed = frame.frame();
  const bool for_me = promiscuous_ || parsed.dst == mac_ || parsed.dst.is_group();
  if (!for_me) {
    stats_.rx_filtered += 1;
    return;
  }
  stats_.rx_frames += 1;
  stats_.rx_bytes += frame.wire_size();
  if (rx_handler_) rx_handler_(frame);
}

void Nic::deliver_wire(util::ByteView wire) {
  deliver(ether::WireFrame::from_wire(util::ByteBuffer(wire.begin(), wire.end())));
}

BatchId TxBatch::flush(Scheduler& scheduler) {
  if (entries_.empty()) return BatchId{};
  // In-place stable insertion sort by completion time. N is the egress
  // port count, and a typical flood's entries share one timestamp (idle
  // ports, same frame), so this is one comparison per entry in the common
  // case and never allocates (std::stable_sort may). The claimant vector
  // moves in lockstep so each NIC still maps to its own entry.
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (!(entries_[i].when < entries_[i - 1].when)) continue;
    Scheduler::TimedEntry moved = std::move(entries_[i]);
    Nic* moved_nic = claimants_[i];
    std::size_t j = i;
    while (j > 0 && moved.when < entries_[j - 1].when) {
      entries_[j] = std::move(entries_[j - 1]);
      claimants_[j] = claimants_[j - 1];
      --j;
    }
    entries_[j] = std::move(moved);
    claimants_[j] = moved_nic;
  }
  const BatchId id = scheduler.schedule_run_at(entries_);
  // Hand the run handle to every claiming NIC: its next frame, arriving
  // while the claim serializes, extends this run instead of queueing.
  for (Nic* nic : claimants_) {
    if (nic != nullptr) nic->note_run(id);
  }
  entries_.clear();
  claimants_.clear();
  return id;
}

}  // namespace ab::netsim
