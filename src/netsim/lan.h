// A broadcast LAN segment: the simulated stand-in for the paper's 100 Mbps
// Ethernets. Serialization delay is charged at the transmitting NIC using
// the segment's bit rate; delivery follows after a propagation delay.
//
// Who is handed a frame. As on the paper's testbed, only the bridge ports
// listen promiscuously; an end station discards what is not addressed to
// it. The segment therefore keeps its NICs in two sets:
//
//   * indexed stations: NICs whose owner declared the station contract
//     (Nic::set_station_ipv4, which HostStack calls) and that are not
//     promiscuous, looked up by MAC and by IPv4 address;
//   * the walk list: every other NIC -- bridge ports, bare NICs, traffic
//     generators, promiscuous stations -- in attach order.
//
// Each transmitted frame is classified once. It always goes to the walk
// list, and to the stations it concerns: for a unicast frame, the station
// with that MAC; for a group ARP frame with a well-formed header, the
// stations whose address is the ARP target; for any other group frame
// (BPDUs, probes), none. A frame the segment cannot place -- a bad FCS,
// an ARP that fails the header check, IPv4 to a group MAC -- goes to every
// station, as a full walk would. Receivers are handed the frame in attach
// order, so every handler that acts runs in the same order as under a full
// walk; the stations left out are exactly those whose filter or handler
// would have discarded the frame, and they are counted in
// LanStats::receivers_skipped instead of their own rx counters.
//
// Delivery is per SEGMENT, not per receiver: one frame schedules one event
// whose callback walks the receivers picked at transmit time (loss already
// drawn, one draw per receiver handed the frame, sender excluded). A frame
// that reaches nobody schedules nothing. A NIC detached between transmit
// and delivery, or detached/destroyed by an earlier receiver's handler
// inside the same walk, is skipped, never touched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/scheduler.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace ab::netsim {

class Nic;

/// Physical parameters of a segment.
struct LanConfig {
  /// Link speed in bits per second. Default: the paper's 100 Mbps Fast
  /// Ethernet.
  double bit_rate = 100e6;
  /// One-way propagation delay across the segment.
  Duration propagation = microseconds(5);
  /// Independent per-receiver drop probability (fault injection).
  double loss = 0.0;
  /// Seed for the loss process.
  std::uint64_t seed = 1;
};

/// Traffic counters for a segment.
struct LanStats {
  std::uint64_t frames_carried = 0;
  std::uint64_t bytes_carried = 0;
  std::uint64_t frames_lost = 0;  ///< receiver-side drops from the loss model
  /// Whole-frame drops scripted via set_drop_filter (conformance suites).
  std::uint64_t frames_dropped_by_filter = 0;
  /// Nic::deliver calls the segment made: receivers handed a frame that
  /// survived the loss draw and were still attached when it arrived.
  std::uint64_t receivers_visited = 0;
  /// Attached receivers, sender excluded, that a frame was not handed
  /// because the station index placed it elsewhere (see LanSegment).
  std::uint64_t receivers_skipped = 0;
};

/// A shared broadcast medium. Attach NICs with Nic::attach().
class LanSegment {
 public:
  /// Observer invoked once per transmitted frame (wire bytes, pre-loss).
  /// Used by FrameTrace and by the storm-detection tests.
  using FrameTap = std::function<void(TimePoint, const Nic* sender, util::ByteView wire)>;

  LanSegment(Scheduler& scheduler, std::string name, LanConfig config);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LanConfig& config() const { return config_; }
  [[nodiscard]] const LanStats& stats() const { return stats_; }
  /// Every attached NIC, stations included, in attach order. May contain
  /// nullptr tombstones for recently detached NICs (compacted away once
  /// they dominate).
  [[nodiscard]] const std::vector<Nic*>& attached() const { return nics_; }

  /// Time to clock `bytes` onto the wire at this segment's bit rate.
  [[nodiscard]] Duration serialization_delay(std::size_t bytes) const;

  /// Carries one shared wire buffer from `sender` to every other attached
  /// NIC it concerns (see the file comment) with ONE scheduled delivery
  /// event for the whole segment. All receivers reference the same
  /// WireFrame, so they share one decode and one FCS verification. Called
  /// by Nic's transmit path; tests may inject frames with a null sender.
  void broadcast(const ether::WireFrame& frame, const Nic* sender);

  /// Sentinel for "no receiver run": a prepared broadcast with no
  /// surviving receivers, or a burst frame whose NIC detached in flight.
  static constexpr std::uint32_t kNoPreparedRun = 0xFFFFFFFFu;

  /// The split form of broadcast() for the burst transmit path: carries
  /// the frame (stats, tap, classification, loss draws and receiver
  /// snapshot exactly as broadcast(), in attach order) but schedules
  /// NOTHING -- the caller already holds a delivery slot in its burst's
  /// shared timed run and fires deliver_prepared() from it, so a k-frame
  /// burst's k deliveries cost one scheduler insert instead of k. Returns
  /// the run index to deliver (the frame is parked in the run), or
  /// kNoPreparedRun when no receiver survived (the delivery slot then
  /// no-ops).
  [[nodiscard]] std::uint32_t prepare_broadcast(const ether::WireFrame& frame,
                                                const Nic* sender);

  /// Delivers a run parked by prepare_broadcast() and recycles it. Must be
  /// called exactly once per prepared index, at transmit time +
  /// propagation -- the burst's delivery run provides both.
  void deliver_prepared(std::uint32_t index);

  void set_frame_tap(FrameTap tap) { tap_ = std::move(tap); }

  /// Scripted per-frame drop hook for the loss-schedule conformance
  /// suites: consulted once per transmitted frame (after the tap and the
  /// relay, before the receiver snapshot); returning true drops the frame
  /// for EVERY receiver, counted in frames_dropped_by_filter. The filter
  /// runs before any loss draw, so scripting drops never perturbs the
  /// seeded per-receiver loss sequence -- deterministic tests use it with
  /// LanConfig::loss == 0 to drop exactly the frames a scenario names.
  using DropFilter =
      std::function<bool(TimePoint, const Nic* sender, util::ByteView wire)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Second observer, reserved for the sharded runner: on a CUT segment the
  /// owning region's replica relays every transmitted frame (same wire
  /// bytes, same timestamp as the tap) into the cross-shard mailboxes.
  /// Kept separate from the frame tap so traces and storm detectors still
  /// compose with sharding.
  void set_relay(FrameTap relay) { relay_ = std::move(relay); }

  /// Remote-origin delivery for a cut segment's non-owning replicas: wraps
  /// the relayed wire bytes arriving from another shard's mailbox and
  /// carries them to the locally attached NICs they concern (classified
  /// exactly as broadcast() does) at absolute time `deliver_at` (transmit
  /// time + propagation, computed producer-side).
  /// Counts NO frames_carried/bytes_carried -- the owning replica already
  /// counted the frame once -- but local loss draws still count
  /// frames_lost here. No sender exclusion: the sender's NIC lives in the
  /// producer's replica, never in this one. The conservative window
  /// guarantees deliver_at is still in this shard's future at drain time
  /// (asserted).
  void inject_remote(const ether::WireFrame& frame, TimePoint deliver_at);

  // Nic::attach/detach call these.
  void attach_nic(Nic& nic);
  void detach_nic(Nic& nic);
  /// Nic calls these around a change of its station declaration or of its
  /// promiscuous mode: the NIC leaves the index or the walk list under its
  /// old mode and rejoins under its new one, keeping its attach position.
  void unfile_nic(const Nic& nic);
  void file_nic(const Nic& nic);

 private:
  static constexpr std::uint32_t kNoRun = kNoPreparedRun;

  /// One lookup of the station index: (key, attach position) pairs sorted
  /// by key, then position, so the stations under one key come out in
  /// attach order. 8 B per station. Registrations append to an unsorted
  /// tail that the next lookup sorts and merges in, so attaching a
  /// million stations is a million push_backs. Entries of a detached NIC
  /// stay until the next compaction renumbers the segment; callers skip
  /// them by their tombstoned slot.
  class StationKeys {
   public:
    void add(std::uint32_t key, std::uint32_t position) {
      entries_.push_back({key, position});
    }
    void remove(std::uint32_t key, std::uint32_t position);
    /// Appends the positions filed under `key`, ascending.
    void find(std::uint32_t key, std::vector<std::uint32_t>& out);
    /// Applies compaction's old -> new position map (kGone: dropped).
    void renumber(const std::vector<std::uint32_t>& new_position);

   private:
    struct Entry {
      std::uint32_t key = 0;
      std::uint32_t position = 0;
      friend auto operator<=>(const Entry&, const Entry&) = default;
    };
    std::vector<Entry> entries_;
    std::size_t sorted_ = 0;  ///< entries_[0, sorted_) are sorted
  };
  static constexpr std::uint32_t kGone = 0xFFFFFFFFu;

  /// Classifies `frame` (see the file comment): true when it goes to
  /// every station; otherwise leaves the positions of the stations it
  /// concerns in targets_, ascending (empty: none).
  [[nodiscard]] bool classify(const ether::WireFrame& frame);
  /// True when `nic` belongs in the index rather than the walk list.
  [[nodiscard]] static bool indexed(const Nic& nic);

  /// The receivers one in-flight broadcast will reach, snapshotted at
  /// transmit time. Runs are pooled (index-linked free list, receiver
  /// vectors keep their capacity) so steady-state fan-out allocates
  /// nothing. `detach_epoch` records the segment's detach counter at
  /// snapshot time: while it still matches, every receiver is trivially
  /// attached and the walk skips the per-NIC membership check. A run made
  /// by prepare_broadcast() also parks the frame itself (its delivery slot
  /// lives in a shared burst run with no room for a per-frame capture).
  struct ReceiverRun {
    std::vector<Nic*> receivers;
    ether::WireFrame frame;
    std::uint64_t detach_epoch = 0;
    /// Segment's compaction counter at snapshot time. deliver_run's
    /// no-detach fast path asserts this still matches: a compaction that
    /// renumbered (or dropped) slots without bumping detach_epoch_ would
    /// otherwise let the walk dereference stale receiver pointers -- the
    /// shard-teardown hazard where a mailbox drain delivers into a replica
    /// whose NICs were detached and compacted after the snapshot.
    std::uint64_t compact_epoch = 0;
    /// True from acquire to release: guards against delivering or
    /// releasing a run index that is already back on the free list.
    bool live = false;
    std::uint32_t next_free = kNoRun;
  };

  [[nodiscard]] std::uint32_t acquire_run();
  void release_run(std::uint32_t index);
  /// Shared snapshot for broadcast / prepare_broadcast / inject_remote:
  /// classifies the frame, then draws loss over its receivers in attach
  /// order, `sender` and tombstones excluded. Returns the acquired run
  /// (kNoRun when empty); with a non-null `sole_out` a single surviving
  /// receiver is deposited there instead of paying for a run.
  [[nodiscard]] std::uint32_t snapshot_run(const ether::WireFrame& frame,
                                           const Nic* sender, Nic** sole_out);
  /// Schedules the delivery of a snapshot taken by snapshot_run at `when`.
  void schedule_delivery(TimePoint when, const ether::WireFrame& frame,
                         std::uint32_t run, Nic* sole);
  /// The sole-receiver delivery: `epoch` is detach_epoch_ at snapshot time,
  /// so the membership scan runs only when a detach happened in flight.
  void deliver_sole(Nic* receiver, std::uint64_t epoch,
                    const ether::WireFrame& frame);
  /// Fires one delivery event: walks the run, delivering to every receiver
  /// still attached, then recycles the run.
  void deliver_run(std::uint32_t index, const ether::WireFrame& frame);
  /// True while `nic` may still be delivered to (attached to this segment).
  /// Compares stored pointers only -- `nic` may point at a destroyed NIC.
  [[nodiscard]] bool still_attached(const Nic* nic) const;
  /// Drops the nullptr tombstones, renumbering the survivors' back-indices,
  /// the walk list and the index. Attach order (and so loss-draw order) is
  /// preserved.
  void compact_nics();

  Scheduler* scheduler_;
  std::string name_;
  LanConfig config_;
  LanStats stats_;
  /// Attach-ordered; a detach leaves a nullptr tombstone (O(1) via the
  /// NIC's back-index) so a million-station teardown never pays a linear
  /// erase per NIC. Compacted when tombstones dominate.
  std::vector<Nic*> nics_;
  std::size_t dead_nics_ = 0;  ///< tombstones currently in nics_
  /// Positions in nics_ of the NICs outside the index, ascending. A
  /// detached NIC's position stays until compaction (its slot is null).
  std::vector<std::uint32_t> walk_;
  StationKeys by_mac_;   ///< keyed by the low 32 bits of the MAC
  StationKeys by_ipv4_;  ///< keyed by the declared IPv4 address
  std::size_t stations_ = 0;  ///< attached NICs currently in the index
  std::vector<std::uint32_t> targets_;  ///< classify()'s output, reused
  util::Rng rng_;
  FrameTap tap_;
  FrameTap relay_;  ///< cross-shard mailbox hook; see set_relay()
  DropFilter drop_filter_;  ///< scripted drops; see set_drop_filter()
  std::vector<ReceiverRun> runs_;
  std::uint32_t free_run_ = kNoRun;
  std::uint64_t detach_epoch_ = 0;   ///< bumped by every detach_nic
  std::uint64_t compact_epoch_ = 0;  ///< bumped by every compact_nics
};

}  // namespace ab::netsim
