#include "src/netsim/lan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/ether/arp_header.h"
#include "src/netsim/nic.h"

namespace ab::netsim {

LanSegment::LanSegment(Scheduler& scheduler, std::string name, LanConfig config)
    : scheduler_(&scheduler),
      name_(std::move(name)),
      config_(config),
      rng_(config.seed) {
  if (config_.bit_rate <= 0) throw std::invalid_argument("LanSegment: bit_rate <= 0");
}

Duration LanSegment::serialization_delay(std::size_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 / config_.bit_rate;
  return Duration(static_cast<std::int64_t>(std::llround(seconds * 1e9)));
}

bool LanSegment::still_attached(const Nic* nic) const {
  return std::find(nics_.begin(), nics_.end(), nic) != nics_.end();
}

std::uint32_t LanSegment::acquire_run() {
  if (free_run_ != kNoRun) {
    const std::uint32_t index = free_run_;
    free_run_ = runs_[index].next_free;
    runs_[index].next_free = kNoRun;
    runs_[index].detach_epoch = detach_epoch_;
    runs_[index].compact_epoch = compact_epoch_;
    runs_[index].live = true;
    return index;
  }
  runs_.emplace_back();
  runs_.back().detach_epoch = detach_epoch_;
  runs_.back().compact_epoch = compact_epoch_;
  runs_.back().live = true;
  return static_cast<std::uint32_t>(runs_.size() - 1);
}

void LanSegment::release_run(std::uint32_t index) {
  assert(runs_[index].live && "double release of a receiver run");
  runs_[index].live = false;
  runs_[index].receivers.clear();  // keeps capacity for the next broadcast
  runs_[index].frame = ether::WireFrame();  // drop the parked wire buffer
  runs_[index].next_free = free_run_;
  free_run_ = index;
}

void LanSegment::StationKeys::remove(std::uint32_t key, std::uint32_t position) {
  const Entry target{key, position};
  const auto sorted_end = entries_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  const auto it = std::lower_bound(entries_.begin(), sorted_end, target);
  if (it != sorted_end && *it == target) {
    entries_.erase(it);
    sorted_ -= 1;
    return;
  }
  const auto tail = std::find(sorted_end, entries_.end(), target);
  if (tail != entries_.end()) entries_.erase(tail);
}

void LanSegment::StationKeys::find(std::uint32_t key, std::vector<std::uint32_t>& out) {
  if (sorted_ < entries_.size()) {
    // A topology build registers stations in address order, so the tail
    // usually extends the sorted prefix as it stands: check before sorting.
    const auto mid = entries_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    if (!std::is_sorted(mid, entries_.end())) std::sort(mid, entries_.end());
    if (sorted_ > 0 && *mid < *(mid - 1)) {
      std::inplace_merge(entries_.begin(), mid, entries_.end());
    }
    sorted_ = entries_.size();
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint32_t k) { return e.key < k; });
  for (; it != entries_.end() && it->key == key; ++it) out.push_back(it->position);
}

void LanSegment::StationKeys::renumber(const std::vector<std::uint32_t>& new_position) {
  // The map is monotone, so sorted entries stay sorted.
  std::size_t w = 0;
  std::size_t sorted = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::uint32_t to = new_position[entries_[i].position];
    if (to == kGone) continue;
    if (i < sorted_) sorted += 1;
    entries_[w++] = Entry{entries_[i].key, to};
  }
  entries_.resize(w);
  sorted_ = sorted;
}

bool LanSegment::indexed(const Nic& nic) {
  return nic.station_ipv4_ != 0 && !nic.promiscuous_;
}

bool LanSegment::classify(const ether::WireFrame& frame) {
  targets_.clear();
  if (stations_ == 0) return false;  // nothing to place
  // ok() is the shared lazy decode every receiver would have paid for.
  if (!frame.ok()) return true;  // every NIC counts rx_bad
  const ether::Frame& parsed = frame.frame();
  if (!parsed.dst.is_group()) {
    // Unicast: the station(s) owning the MAC. The key is the MAC's low 32
    // bits, so confirm the whole address on the NIC that matched -- the
    // destination, which is handed the frame anyway.
    by_mac_.find(static_cast<std::uint32_t>(parsed.dst.value()), targets_);
    std::erase_if(targets_, [&](std::uint32_t at) {
      return nics_[at] == nullptr || nics_[at]->mac() != parsed.dst;
    });
    return false;
  }
  if (parsed.has_type(ether::EtherType::kArp)) {
    // A malformed header makes every station's parser count an error.
    if (ether::check_arp_header(parsed.payload) != ether::ArpHeaderCheck::kOk) {
      return true;
    }
    by_ipv4_.find(ether::arp_target_ipv4(parsed.payload), targets_);
    return false;
  }
  // IPv4 to a group MAC: every station parses the header. Stations ignore
  // LLC (BPDUs) and every other group type.
  return parsed.has_type(ether::EtherType::kIpv4);
}

std::uint32_t LanSegment::snapshot_run(const ether::WireFrame& frame,
                                       const Nic* sender, Nic** sole_out) {
  // Snapshot the receivers now, in attach order, one loss draw each. With
  // `sole_out`, a single surviving receiver is deposited there instead of
  // paying for a run (the point-to-point case, and a unicast from the one
  // bridge port of a station LAN); callers whose delivery slot has no
  // per-frame capture room pass nullptr and always get a run.
  Nic* sole = nullptr;
  std::uint32_t run = kNoRun;
  std::uint64_t handed = 0;
  const auto take = [&](Nic* nic) {
    if (nic == nullptr || nic == sender) return;  // tombstone or sender
    handed += 1;
    if (config_.loss > 0 && rng_.chance(config_.loss)) {
      stats_.frames_lost += 1;
      return;
    }
    if (run == kNoRun) {
      if (sole_out != nullptr && sole == nullptr) {
        sole = nic;
        return;
      }
      run = acquire_run();
      if (sole != nullptr) {
        runs_[run].receivers.push_back(sole);
        sole = nullptr;
      }
    }
    runs_[run].receivers.push_back(nic);
  };

  if (classify(frame)) {
    for (Nic* nic : nics_) take(nic);  // the full walk
  } else {
    // Merge the walk list with the targeted stations by attach position.
    std::size_t t = 0;
    for (const std::uint32_t at : walk_) {
      for (; t < targets_.size() && targets_[t] < at; ++t) take(nics_[targets_[t]]);
      take(nics_[at]);
    }
    for (; t < targets_.size(); ++t) take(nics_[targets_[t]]);
  }

  const bool sender_here = sender != nullptr && sender->lan_index_ < nics_.size() &&
                           nics_[sender->lan_index_] == sender;
  const std::size_t candidates = nics_.size() - dead_nics_ - (sender_here ? 1 : 0);
  stats_.receivers_skipped += candidates - handed;
  if (sole_out != nullptr) *sole_out = sole;
  return run;
}

void LanSegment::schedule_delivery(TimePoint when, const ether::WireFrame& frame,
                                   std::uint32_t run, Nic* sole) {
  if (sole != nullptr) {
    // Single receiver: skip the run machinery; this closure fits the
    // scheduler's 48-byte inline capture.
    scheduler_->schedule_at(when, [this, sole, epoch = detach_epoch_, frame] {
      deliver_sole(sole, epoch, frame);
    });
  } else if (run != kNoRun) {
    scheduler_->schedule_at(when, [this, run, frame] { deliver_run(run, frame); });
  }
}

void LanSegment::deliver_sole(Nic* receiver, std::uint64_t epoch,
                              const ether::WireFrame& frame) {
  // The NIC may have detached (even been destroyed) while the frame was in
  // flight; without a detach since the snapshot it is trivially attached.
  if (epoch != detach_epoch_ && !still_attached(receiver)) return;
  stats_.receivers_visited += 1;
  receiver->deliver(frame);
}

void LanSegment::broadcast(const ether::WireFrame& frame, const Nic* sender) {
  stats_.frames_carried += 1;
  stats_.bytes_carried += frame.wire_size();
  if (tap_) tap_(scheduler_->now(), sender, frame.wire());
  if (relay_) relay_(scheduler_->now(), sender, frame.wire());
  if (drop_filter_ && drop_filter_(scheduler_->now(), sender, frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return;  // before any loss draw: the seeded sequence is untouched
  }

  // One scheduled event delivers the whole segment by walking the
  // snapshot. Every receiver shares the same WireFrame: one buffer, one
  // (lazy) decode, one FCS check.
  Nic* sole = nullptr;
  const std::uint32_t run = snapshot_run(frame, sender, &sole);
  schedule_delivery(scheduler_->now() + config_.propagation, frame, run, sole);
}

std::uint32_t LanSegment::prepare_broadcast(const ether::WireFrame& frame,
                                            const Nic* sender) {
  stats_.frames_carried += 1;
  stats_.bytes_carried += frame.wire_size();
  if (tap_) tap_(scheduler_->now(), sender, frame.wire());
  if (relay_) relay_(scheduler_->now(), sender, frame.wire());
  if (drop_filter_ && drop_filter_(scheduler_->now(), sender, frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return kNoPreparedRun;  // the caller's delivery slot no-ops
  }

  // Same snapshot discipline as broadcast() -- loss draws in attach order,
  // so seeded loss sequences are identical whichever transmit path carried
  // the frame -- but the delivery event belongs to the caller's burst run,
  // so nothing is scheduled here and the frame parks in the run itself
  // (the shared burst slot has no room for a per-frame capture). No
  // sole-receiver shortcut: the run IS the frame's storage.
  const std::uint32_t run = snapshot_run(frame, sender, nullptr);
  if (run != kNoRun) runs_[run].frame = frame;
  return run;
}

void LanSegment::inject_remote(const ether::WireFrame& frame, TimePoint deliver_at) {
  // The conservative window ends at least one lookahead short of any
  // cross-shard frame's delivery time, so a drained frame is always still
  // in this shard's future.
  assert(deliver_at >= scheduler_->now() &&
         "cross-shard frame arrived in this shard's past: window too wide");
  // No frames_carried/bytes_carried, no tap, no relay: the owning replica
  // counted, traced, and relayed this frame once at transmit time. Local
  // loss draws (this replica's own rng, its own attach order) still count
  // frames_lost here. No sender to exclude -- the transmitting NIC is
  // attached to the producer's replica, never to this one. Scripted drops
  // apply per replica, like the loss model.
  if (drop_filter_ && drop_filter_(scheduler_->now(), /*sender=*/nullptr,
                                   frame.wire())) {
    stats_.frames_dropped_by_filter += 1;
    return;
  }
  Nic* sole = nullptr;
  const std::uint32_t run = snapshot_run(frame, /*sender=*/nullptr, &sole);
  schedule_delivery(deliver_at, frame, run, sole);
}

void LanSegment::deliver_prepared(std::uint32_t index) {
  assert(index < runs_.size() && runs_[index].live &&
         "deliver_prepared on a released or never-prepared run");
  // Move the frame out first: a receiver's handler can broadcast
  // synchronously and grow runs_, invalidating references into it.
  ether::WireFrame frame = std::move(runs_[index].frame);
  deliver_run(index, frame);
}

void LanSegment::deliver_run(std::uint32_t index, const ether::WireFrame& frame) {
  assert(runs_[index].live && "delivering a released receiver run");
  // Indexed access throughout: a handler could conceivably inject another
  // broadcast synchronously and grow runs_ under us.
  for (std::size_t i = 0; i < runs_[index].receivers.size(); ++i) {
    Nic* receiver = runs_[index].receivers[i];
    // A receiver detached since the snapshot -- including by an EARLIER
    // receiver's handler inside this very walk -- must not be touched (it
    // may even have been destroyed; still_attached compares pointers
    // without dereferencing). While no detach has happened since the
    // snapshot, membership is implied and the walk stays O(1) per NIC.
    if (runs_[index].detach_epoch != detach_epoch_) {
      if (!still_attached(receiver)) continue;
    } else {
      // Compaction only ever runs off a detach, which bumps detach_epoch_
      // -- so an epoch match means the snapshot's pointers are exactly the
      // live attach list. If compaction ever grows another trigger (e.g.
      // shard teardown draining a finished neighbor's mailbox into a
      // partially torn-down replica) this catches the stale-slot
      // dereference instead of corrupting memory.
      assert(runs_[index].compact_epoch == compact_epoch_ &&
             "nics_ compacted without a detach epoch bump: snapshot stale");
    }
    stats_.receivers_visited += 1;
    receiver->deliver(frame);
  }
  release_run(index);
}

void LanSegment::attach_nic(Nic& nic) {
  // Nic::attach detaches from any previous segment first, so `nic` cannot
  // already be in the list -- attaching a million stations is a million
  // push_backs, not a million membership scans.
  nic.lan_index_ = nics_.size();
  nics_.push_back(&nic);
  file_nic(nic);
}

void LanSegment::file_nic(const Nic& nic) {
  const auto at = static_cast<std::uint32_t>(nic.lan_index_);
  if (indexed(nic)) {
    by_mac_.add(static_cast<std::uint32_t>(nic.mac().value()), at);
    by_ipv4_.add(nic.station_ipv4_, at);
    stations_ += 1;
  } else {
    walk_.insert(std::upper_bound(walk_.begin(), walk_.end(), at), at);
  }
}

void LanSegment::unfile_nic(const Nic& nic) {
  const auto at = static_cast<std::uint32_t>(nic.lan_index_);
  if (indexed(nic)) {
    by_mac_.remove(static_cast<std::uint32_t>(nic.mac().value()), at);
    by_ipv4_.remove(nic.station_ipv4_, at);
    stations_ -= 1;
  } else {
    const auto it = std::lower_bound(walk_.begin(), walk_.end(), at);
    if (it != walk_.end() && *it == at) walk_.erase(it);
  }
}

void LanSegment::detach_nic(Nic& nic) {
  // Tombstone via the NIC's back-index: O(1), and attach order (which the
  // loss-draw sequence is keyed to) is preserved for the survivors. An
  // ordered erase here would make a million-station teardown quadratic.
  // The NIC's walk-list or index entries stay behind its null slot until
  // compaction drops them.
  const std::size_t i = nic.lan_index_;
  if (i >= nics_.size() || nics_[i] != &nic) return;
  nics_[i] = nullptr;
  dead_nics_ += 1;
  if (indexed(nic)) stations_ -= 1;
  detach_epoch_ += 1;  // in-flight runs fall back to membership checks
  if (dead_nics_ * 2 > nics_.size()) compact_nics();
}

void LanSegment::compact_nics() {
  std::vector<std::uint32_t> new_position(nics_.size(), kGone);
  std::size_t w = 0;
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    Nic* nic = nics_[i];
    if (nic == nullptr) continue;
    new_position[i] = static_cast<std::uint32_t>(w);
    nic->lan_index_ = w;
    nics_[w++] = nic;
  }
  nics_.resize(w);
  dead_nics_ = 0;
  std::size_t walk = 0;
  for (const std::uint32_t at : walk_) {
    if (new_position[at] != kGone) walk_[walk++] = new_position[at];
  }
  walk_.resize(walk);
  by_mac_.renumber(new_position);
  by_ipv4_.renumber(new_position);
  compact_epoch_ += 1;  // in-flight snapshots must not trust their slots
}

}  // namespace ab::netsim
