#include "src/netsim/nic.h"

#include <algorithm>

namespace ab::netsim {

namespace {

/// What stats() reads for every idle NIC.
const NicStats kIdleStats{};

/// The dispatch set_rx_handler(RxHandler) installs: the context is the
/// box's handler.
void call_stored_handler(void* handler, const ether::WireFrame& frame) {
  (*static_cast<const Nic::RxHandler*>(handler))(frame);
}

}  // namespace

NicName NicName::host(std::uint32_t lan, std::uint32_t index) {
  NicName name;
  name.key_ = kHostKey | std::uint64_t{lan} << 32 | index;
  return name;
}

std::string NicName::spell(std::uint64_t key) {
  return "host" + std::to_string((key & ~kHostKey) >> 32) + "_" +
         std::to_string(key & 0xFFFFFFFFu);
}

Nic::Nic(Scheduler& scheduler, NicName name, ether::MacAddress mac)
    : scheduler_(&scheduler), name_key_(name.key_), mac_(mac) {
  if (!name.text_.empty()) cold().name = std::move(name.text_);
}

Nic::~Nic() {
  // The transmit run's completion entries capture `this`; a NIC destroyed
  // with the run still pending (an arena teardown mid-burst) must pull
  // those entries back out of the scheduler or they fire into freed
  // memory. Only runs this NIC scheduled for itself are cancelled: a claim
  // merged into a TxBatch run (note_run) shares the run with other ports'
  // entries, which a wholesale cancel would strand. The burst's delivery
  // run needs no cancel -- its closures capture the segment and the shared
  // slot vector, never the NIC, and undeposited slots no-op.
  if (cold_ && cold_->owns_run && cold_->run_remaining > 0) {
    scheduler_->cancel(cold_->run_id);
  }
  if (segment_ != nullptr) segment_->detach_nic(*this);
}

Nic::ColdState& Nic::cold() {
  if (!cold_) cold_ = std::make_unique<ColdState>();
  return *cold_;
}

std::string Nic::name() const {
  if (name_key_ != 0) return NicName::spell(name_key_);
  return cold_ ? cold_->name : std::string();
}

const NicStats& Nic::stats() const { return cold_ ? cold_->stats : kIdleStats; }

void Nic::set_rx_handler(RxHandler handler) {
  if (!handler) {
    if (cold_) cold_->handler = nullptr;
    set_rx_handler(nullptr, nullptr);
    return;
  }
  ColdState& c = cold();
  c.handler = std::move(handler);
  set_rx_handler(&call_stored_handler, &c.handler);
}

Nic::RxHandler Nic::rx_handler() const {
  if (rx_fn_ == nullptr) return nullptr;
  if (rx_fn_ == &call_stored_handler) return cold_->handler;
  return [fn = rx_fn_, context = rx_context_](const ether::WireFrame& frame) {
    fn(context, frame);
  };
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
    cold().stats.tx_dropped += 1;
    return false;
  }
  // Validate here (not inside a scheduler event) so a malformed frame
  // throws at the call site. The bytes stay unbuilt: receivers share the
  // parse, so only a tap, relay, drop filter or capture ever encodes.
  frame.check_encodable();
  ColdState& c = cold();
  // Saturated transmitter with nothing queued ahead: this frame would sit
  // alone in the FIFO queue until the in-flight run's last completion,
  // then restart the transmitter at exactly run_tail_time. Appending it
  // to the run at tail + serialization produces the identical timeline
  // with ZERO new heap inserts -- the saturated-flood case where every hop
  // stays at one insert. Any failure (stale run, FIFO order at stake)
  // falls through to the queue.
  if (c.transmitting && c.tx_queue.empty() && c.run_remaining > 0) {
    const std::size_t wire_bytes = frame.wire_size();
    const TimePoint completes =
        c.run_tail_time + segment_->serialization_delay(wire_bytes);
    if (scheduler_->try_extend_run(c.run_id, completion(completes, frame))) {
      c.run_remaining += 1;
      c.run_tail_time = completes;
      c.stats.tx_frames += 1;
      c.stats.tx_bytes += wire_bytes;
      return true;
    }
  }
  c.tx_queue.push_back(std::move(frame));
  if (!c.transmitting) start_transmitter();
  return true;
}

std::size_t Nic::transmit_burst(std::span<ether::WireFrame> frames) {
  // Per-frame admission as in transmit(): the queue takes a prefix of the
  // burst and tail-drops the rest.
  const std::size_t backlogged = backlog();
  const std::size_t room = segment_ == nullptr || backlogged >= tx_queue_limit_
                               ? 0
                               : tx_queue_limit_ - backlogged;
  const std::size_t admitted = std::min(frames.size(), room);
  // Validate every frame the queue will take before taking any, so a
  // malformed one throws at the call site with nothing queued or counted.
  for (std::size_t i = 0; i < admitted; ++i) frames[i].check_encodable();
  ColdState& c = cold();
  for (std::size_t i = 0; i < admitted; ++i) c.tx_queue.push_back(std::move(frames[i]));
  c.stats.tx_dropped += frames.size() - admitted;
  if (admitted > 0 && !c.transmitting) start_transmitter();
  return admitted;
}

std::optional<Scheduler::TimedEntry> Nic::try_prepare(ether::WireFrame frame) {
  if (segment_ == nullptr) return std::nullopt;
  if (cold_ && (cold_->transmitting || !cold_->tx_queue.empty())) return std::nullopt;
  frame.check_encodable();
  ColdState& c = cold();
  c.transmitting = true;
  const std::size_t wire_bytes = frame.wire_size();
  c.stats.tx_frames += 1;
  c.stats.tx_bytes += wire_bytes;
  // The claim is a one-entry run from this NIC's point of view: the caller
  // schedules it (alone or merged into a TxBatch run) and reports the
  // handle back through note_run(); until then run_id is stale and an
  // extension attempt harmlessly fails into the FIFO queue.
  c.run_remaining = 1;
  c.run_id = BatchId{};
  c.owns_run = false;  // the caller's run; note_run() reports the handle
  c.run_tail_time = scheduler_->now() + segment_->serialization_delay(wire_bytes);
  return completion(c.run_tail_time, std::move(frame));
}

Scheduler::TimedEntry Nic::completion(TimePoint when, ether::WireFrame frame) {
  // Pacing is fixed now: the entry broadcasts only onto the segment the
  // frame was paced for, so a NIC detached (or reattached elsewhere) in
  // flight skips the broadcast instead of delivering at the wrong rate.
  LanSegment* const paced_for = segment_;
  return {when, [this, paced_for, frame = std::move(frame)] {
            cold_->run_remaining -= 1;
            if (segment_ == paced_for) segment_->broadcast(frame, this);
            if (cold_->run_remaining == 0) start_transmitter();
          }};
}

void Nic::start_transmitter() {
  ColdState& c = *cold_;
  if (c.tx_queue.empty() || segment_ == nullptr) {
    c.transmitting = false;
    c.run_remaining = 0;
    c.run_id = BatchId{};
    c.owns_run = false;
    return;
  }
  c.transmitting = true;
  if (c.tx_queue.size() == 1) {
    // Single frame: one completion event at the time the self-rearming
    // chain always produced -- but issued as a one-entry timed run, so a
    // frame arriving while it serializes can extend it in place.
    ether::WireFrame frame = std::move(c.tx_queue.front());
    c.tx_queue.pop_front();
    const std::size_t wire_bytes = frame.wire_size();
    c.stats.tx_frames += 1;
    c.stats.tx_bytes += wire_bytes;
    c.run_remaining = 1;
    c.run_tail_time = scheduler_->now() + segment_->serialization_delay(wire_bytes);
    Scheduler::TimedEntry entry = completion(c.run_tail_time, std::move(frame));
    c.run_id = scheduler_->schedule_run_at(std::span(&entry, 1));
    c.owns_run = true;
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
  // first keep counting against tx_queue_limit_ through run_remaining.
  // The entry that takes run_remaining to zero restarts the transmitter,
  // so frames queued mid-run (or a reattached segment's traffic) drain as
  // the next burst. Entries act only on the segment the burst was PACED
  // for: a NIC detached -- or detached and reattached elsewhere --
  // mid-burst skips the remaining broadcasts (depositing the no-run
  // sentinel keeps the delivery slots aligned) rather than deliver them at
  // another segment's wrong serialization times.
  LanSegment* const paced_for = segment_;
  std::vector<Scheduler::TimedEntry> completions;
  std::vector<Scheduler::TimedEntry> deliveries;
  completions.reserve(c.tx_queue.size());
  deliveries.reserve(c.tx_queue.size());
  // The previous burst's delivery closures may still hold the old slot
  // vector (deliveries trail completions by the propagation delay); leave
  // it to them and start a fresh one. With no holders left, reuse it.
  if (!c.burst_slots || c.burst_slots.use_count() > 1) {
    c.burst_slots = std::make_shared<std::vector<std::uint32_t>>();
  }
  c.burst_slots->assign(c.tx_queue.size(), LanSegment::kNoPreparedRun);
  c.burst_cursor = 0;
  c.run_remaining = c.tx_queue.size();
  const Duration propagation = paced_for->config().propagation;
  TimePoint completes = scheduler_->now();
  std::size_t slot = 0;
  while (!c.tx_queue.empty()) {
    ether::WireFrame frame = std::move(c.tx_queue.front());
    c.tx_queue.pop_front();
    const std::size_t wire_bytes = frame.wire_size();
    completes += segment_->serialization_delay(wire_bytes);
    c.stats.tx_frames += 1;
    c.stats.tx_bytes += wire_bytes;
    Scheduler::TimedEntry entry;
    entry.when = completes;
    entry.fn = [this, paced_for, frame = std::move(frame)] {
      ColdState& box = *cold_;
      box.run_remaining -= 1;
      (*box.burst_slots)[box.burst_cursor] =
          segment_ == paced_for ? paced_for->prepare_broadcast(frame, this)
                                : LanSegment::kNoPreparedRun;
      box.burst_cursor += 1;
      if (box.run_remaining == 0) start_transmitter();
    };
    completions.push_back(std::move(entry));
    Scheduler::TimedEntry delivery;
    delivery.when = completes + propagation;
    // No `this` capture: the delivery outlives any mid-flight detach (the
    // frame is already on the wire) and only needs the segment + slot.
    delivery.fn = [seg = paced_for, slots = c.burst_slots, slot] {
      const std::uint32_t run = (*slots)[slot];
      if (run != LanSegment::kNoPreparedRun) seg->deliver_prepared(run);
    };
    deliveries.push_back(std::move(delivery));
    ++slot;
  }
  // Transmit run first, delivery run second: at equal timestamps (zero
  // propagation) a frame's completion still precedes its delivery, the
  // order the chain produced.
  c.run_id = scheduler_->schedule_run_at(completions);
  c.owns_run = true;
  c.run_tail_time = completes;
  scheduler_->schedule_run_at(deliveries);
}

void Nic::deliver(const ether::WireFrame& frame) {
  NicStats& stats = cold().stats;
  // ok() triggers the shared lazy decode: the first NIC on the segment pays
  // one parse + one CRC-32 check, every other receiver reuses the result.
  if (!frame.ok()) {
    stats.rx_bad += 1;
    return;
  }
  const ether::Frame& parsed = frame.frame();
  const bool for_me = promiscuous_ || parsed.dst == mac_ || parsed.dst.is_group();
  if (!for_me) {
    stats.rx_filtered += 1;
    return;
  }
  stats.rx_frames += 1;
  stats.rx_bytes += frame.wire_size();
  if (rx_fn_ != nullptr) rx_fn_(rx_context_, frame);
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
  for (Nic* nic : claimants_) nic->note_run(id);
  entries_.clear();
  claimants_.clear();
  return id;
}

}  // namespace ab::netsim
