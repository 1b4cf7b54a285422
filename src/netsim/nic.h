// A simulated Ethernet adapter.
//
// Receive path: the segment's per-frame delivery walk hands each receiver
// the same shared WireFrame (one scheduled event per segment, not per
// NIC); the NIC checks FCS validity (one decode + one CRC check shared by
// every receiver of the frame), applies its address filter
// (unicast-to-me, broadcast, group, or everything when promiscuous -- the
// paper's bridge "whenever an input port is bound, it is put into
// promiscuous mode"), and hands the shared frame to the registered
// handler. A NIC that declares itself a station (set_station_ipv4) is
// handed only the frames its owner acts on; see LanSegment. Detaching
// removes the NIC from in-flight delivery walks; it is safe from inside
// another NIC's rx handler mid-walk.
//
// Transmit path: WireFrames queue FIFO behind the transmitter, which is
// busy for the segment's serialization delay per frame; a full queue drops
// (tail-drop, counted). Every WireFrame is queued by reference count --
// no re-encode, no re-CRC, no copy. Transmit only validates a frame; its
// bytes and FCS are built on the first wire() call, which only a tap, a
// cut-LAN relay, a drop filter or a capture makes, so a frame nothing
// reads is never encoded.
//
// Burst transmit: a backlog (a ttcp write's fragment train, a flood fan-
// out's share of one port) drains as ONE monotone timed run -- the k
// serialization completion times are cumulative and known upfront, so the
// whole burst costs one scheduler insert where the self-rearming per-frame
// chain cost k. The k DELIVERIES ride a second shared timed run scheduled
// alongside (each at its frame's completion + propagation): a completion
// entry snapshots its receivers with LanSegment::prepare_broadcast and
// deposits the run index into a slot vector the delivery entries read, so
// a k-frame burst costs two inserts total where completion-then-broadcast
// cost 1 + k. Completion and delivery events still fire at exactly the
// times the chain produced; only the insert count changes. Pacing is
// fixed when a completion is scheduled: EVERY completion (single-frame,
// try_prepare claim, or burst entry) broadcasts only onto the segment it
// was paced for -- a NIC detached (or reattached elsewhere) in flight
// skips the pending broadcasts instead of delivering them at the wrong
// rate. Frames queued mid-burst drain after the burst's last entry --
// UNLESS nothing else is queued and the frame's completion lands past the
// run's tail, in which case transmit() appends it to the in-flight run
// (Scheduler::try_extend_run): a saturated flood stays at one insert per
// hop instead of re-entering the FIFO queue, with timing identical to the
// queue-then-restart path. tx_frames/tx_bytes count at schedule time
// (admission to the wire), so transmissions cut short by a detach keep
// their counts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"
#include "src/netsim/scheduler.h"

namespace ab::netsim {

/// Interface counters, mirroring what ifconfig would have shown on the
/// paper's testbed.
struct NicStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_dropped = 0;  ///< tail-dropped: transmit queue full
  std::uint64_t rx_frames = 0;   ///< delivered to the handler
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_filtered = 0;  ///< address filter rejected
  std::uint64_t rx_bad = 0;       ///< FCS or framing errors
};

/// Minimal FIFO of wire frames over a lazily-allocated vector. An idle
/// NIC's queue costs two words; std::deque here eagerly allocated its
/// chunk map and first chunk (~600 heap bytes per NIC -- ruinous at a
/// million idle stations). pop_front advances a head index and releases
/// the frame's wire buffer immediately; storage resets when the queue
/// drains and the dead prefix is compacted away when it dominates.
class FrameFifo {
 public:
  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
  [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
  [[nodiscard]] ether::WireFrame& front() { return buf_[head_]; }
  void push_back(ether::WireFrame frame) { buf_.push_back(std::move(frame)); }
  void pop_front() {
    buf_[head_] = ether::WireFrame();  // drop the wire buffer now
    head_ += 1;
    if (head_ == buf_.size()) {
      buf_.clear();  // keeps capacity for the steady state
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<ether::WireFrame> buf_;
  std::size_t head_ = 0;
};

/// One network interface. NICs are owned by Network and must outlive any
/// scheduled simulation events.
class Nic {
 public:
  using RxHandler = std::function<void(const ether::WireFrame&)>;

  Nic(Scheduler& scheduler, std::string name, ether::MacAddress mac);
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ether::MacAddress mac() const { return mac_; }

  /// Connects to a segment (detaching from any previous one).
  void attach(LanSegment& segment);
  void detach();
  [[nodiscard]] LanSegment* segment() const { return segment_; }

  /// Installs the receive callback. Passing nullptr silences the NIC
  /// (frames are filtered-counted but dropped).
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }
  /// The installed receive callback (so an observer can wrap it).
  [[nodiscard]] const RxHandler& rx_handler() const { return rx_handler_; }

  /// Takes effect for frames delivered from now on; a station NIC also
  /// moves to its segment's walk list (or back to the index) for frames
  /// sent from now on.
  void set_promiscuous(bool on);
  [[nodiscard]] bool promiscuous() const { return promiscuous_; }

  /// Declares the station contract: the rx handler acts only on unicast
  /// frames to this NIC's MAC, on group ARP whose target protocol address
  /// is `ipv4` (a host-order IPv4 word), and on IPv4 sent to a group MAC;
  /// it ignores every other group frame. The segment then indexes the NIC
  /// and stops handing it the rest (HostStack declares this; see
  /// LanSegment). 0, the default, withdraws the declaration.
  void set_station_ipv4(std::uint32_t ipv4);

  /// Bounds the transmit backlog (frames). Default 512. Occupancy counts
  /// queued frames plus the unfired remainder of a scheduled burst run
  /// beyond the frame currently serializing -- the same backlog the
  /// per-frame chain kept in the queue -- so tail-drop behavior under
  /// sustained overload is unchanged by burst draining.
  void set_tx_queue_limit(std::size_t limit) { tx_queue_limit_ = limit; }

  /// Queues a shared wire buffer for transmission by refcount. Its bytes
  /// are not built here: they are encoded at most once, by whatever first
  /// reads them (tap, relay, drop filter, capture). Returns false (and
  /// counts a drop) if the queue is full or the NIC is detached. A frame
  /// the queue would take that could not be encoded throws what
  /// Frame::encode would (std::length_error over the MTU,
  /// std::logic_error with neither ethertype nor LLC) before any side
  /// effect.
  bool transmit(ether::WireFrame frame);

  /// Convenience overloads for locally originated traffic: wrap the parsed
  /// frame into a WireFrame. Temporaries move in; lvalues pay one counted
  /// payload copy.
  bool transmit(const ether::Frame& frame) { return transmit(ether::WireFrame(frame)); }
  bool transmit(ether::Frame&& frame) {
    return transmit(ether::WireFrame(std::move(frame)));
  }

  /// Queues every frame of `frames` (moved from) for transmission as one
  /// burst. Admission per frame matches transmit() -- a full queue
  /// tail-drops (counted), a detached NIC drops everything -- and the
  /// admitted backlog is scheduled as ONE monotone timed run: a K-frame
  /// burst costs one scheduler insert where K transmit() calls cost K,
  /// with identical frame timing. Returns the number of frames admitted.
  /// Throws as transmit() does if any frame the queue would take could not
  /// be encoded, before admitting (or moving from) a single one.
  std::size_t transmit_burst(std::span<ether::WireFrame> frames);

  /// Claims the idle transmitter for `frame`: accounts stats, marks the
  /// NIC busy, and returns the serialization-completion event -- time plus
  /// the callback that broadcasts the frame and restarts the queue -- for
  /// the CALLER to schedule (a bridge's TxBatch merges the claims of every
  /// egress port into one run). The caller MUST schedule the entry, or the
  /// transmitter stays claimed forever. Returns nullopt with NO side
  /// effects when the transmitter is busy, frames are queued, or the NIC
  /// is detached; fall back to transmit(), which preserves FIFO order and
  /// counts drops. An idle transmitter offered a frame that could not be
  /// encoded throws as transmit() does, before claiming anything.
  std::optional<Scheduler::TimedEntry> try_prepare(ether::WireFrame frame);

  /// Records the run a try_prepare claim was scheduled into (TxBatch calls
  /// this after flush), so a later transmit() on the saturated NIC can
  /// extend that run instead of falling back to the FIFO queue. The run is
  /// SHARED with the batch's other claimants, so this NIC never cancels it.
  void note_run(BatchId id) {
    run_id_ = id;
    owns_run_ = false;
  }

  /// Entry point for the segment's delivery events.
  void deliver(const ether::WireFrame& frame);

  /// Legacy/test entry point: wraps raw wire bytes and delivers them.
  void deliver_wire(util::ByteView wire);

  [[nodiscard]] const NicStats& stats() const { return stats_; }

 private:
  friend class LanSegment;  // maintains lan_index_; reads the station mode

  void start_transmitter();
  /// Frames charged against tx_queue_limit_: the queue plus the unfired
  /// remainder of the in-flight run beyond the frame serializing.
  [[nodiscard]] std::size_t backlog() const {
    return tx_queue_.size() + (run_remaining_ > 0 ? run_remaining_ - 1 : 0);
  }

  Scheduler* scheduler_;
  std::string name_;
  ether::MacAddress mac_;
  LanSegment* segment_ = nullptr;
  /// This NIC's position in segment_'s attach list -- the back-index that
  /// makes detach O(1) on a million-station segment. Owned by LanSegment.
  std::size_t lan_index_ = 0;
  RxHandler rx_handler_;
  bool promiscuous_ = false;
  std::uint32_t station_ipv4_ = 0;  ///< see set_station_ipv4; 0: not a station
  FrameFifo tx_queue_;
  std::size_t tx_queue_limit_ = 512;
  bool transmitting_ = false;
  NicStats stats_;
  /// Unfired entries of this NIC's in-flight transmit run, INCLUDING the
  /// frame currently serializing (so occupancy charges run_remaining_ - 1
  /// against tx_queue_limit_ -- the same backlog the per-frame chain kept
  /// in the queue). Each completion entry decrements it; the entry that
  /// takes it to zero restarts the transmitter, which makes appended
  /// extension entries part of the same service period.
  std::size_t run_remaining_ = 0;
  /// Handle + tail completion time of the in-flight transmit run; a
  /// transmit() on the saturated NIC appends past the tail via
  /// Scheduler::try_extend_run. Stale handles fail the extension safely.
  BatchId run_id_{};
  TimePoint run_tail_time_{};
  /// True when run_id_ names a run scheduled by and for this NIC alone
  /// (start_transmitter's single or burst drain), which ~Nic cancels if
  /// still pending -- its completion entries capture `this`. False for a
  /// TxBatch run recorded via note_run(): that run carries OTHER ports'
  /// completions too and must survive this NIC.
  bool owns_run_ = false;
  /// Receiver-run indices a burst's completion entries deposit (via
  /// LanSegment::prepare_broadcast) for its delivery entries to read.
  /// Shared: the delivery closures hold the vector alive after the next
  /// burst replaces it. burst_cursor_ is the deposit position -- implicit
  /// order works because every completion of a burst fires before the
  /// next burst resets the vector.
  std::shared_ptr<std::vector<std::uint32_t>> burst_slots_;
  std::size_t burst_cursor_ = 0;
  /// Scratch for start_transmitter's burst drain (capacity reused).
  std::vector<Scheduler::TimedEntry> drain_scratch_;
  std::vector<Scheduler::TimedEntry> delivery_scratch_;
};

/// Collects claimed transmissions (Nic::try_prepare) across the NICs of
/// one node and issues them as ONE monotone timed run: an N-port flood
/// costs the bridge one scheduler insert instead of one per egress port.
/// Idle ports serializing the same frame complete at the same timestamp,
/// so a typical flood's entries coalesce onto one time and the in-place
/// insertion sort in flush() does no work. The entry vector keeps its
/// capacity across flushes, so steady-state floods allocate nothing.
class TxBatch {
 public:
  void add(Scheduler::TimedEntry entry) {
    entries_.push_back(std::move(entry));
    claimants_.push_back(nullptr);
  }

  /// add() that also remembers whose transmitter the claim belongs to:
  /// flush() hands the run's BatchId back to each claimant (note_run), so
  /// a saturated port's next frame can extend the run in place.
  void add(Nic& nic, Scheduler::TimedEntry entry) {
    entries_.push_back(std::move(entry));
    claimants_.push_back(&nic);
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Orders the collected completions by time (stable: claim order breaks
  /// ties, matching what per-port schedule calls would have produced) and
  /// schedules them as one run. Clears the batch, keeping capacity.
  /// Returns the run's handle (null when the batch was empty).
  BatchId flush(Scheduler& scheduler);

 private:
  std::vector<Scheduler::TimedEntry> entries_;
  std::vector<Nic*> claimants_;  ///< parallel to entries_; null for add(entry)
};

}  // namespace ab::netsim
