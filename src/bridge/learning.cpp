#include "src/bridge/learning.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ab::bridge {

void MacTable::grow(std::size_t for_size) {
  // Size for a load factor under 1/2 at `for_size` live entries, so probe
  // runs stay short; rebuilding drops every tombstone.
  std::size_t capacity = 16;
  while (capacity < for_size * 2) capacity *= 2;
  // `old` frees the replaced generation when it goes out of scope.
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  used_ = size_;
  reset_dest_cache();
  for (const Slot& s : old) {
    if (!s.live()) continue;
    std::size_t i = slot_index(s.key());
    while (slots_[i].key_port != kEmptySlot) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = s;
  }
}

void MacTable::learn(ether::MacAddress src, active::PortId port,
                     netsim::TimePoint now) {
  if (src.is_group() || src.is_zero()) return;  // footnote 3
  // Keep live + tombstone occupancy under 3/4 so the probe below always
  // terminates at an empty slot and stays short.
  if (slots_.empty() || (used_ + 1) * 4 > slots_.size() * 3) grow(size_ + 1);

  // learn() never touches the last-destination cache: the forwarding path
  // learns the SOURCE immediately before looking up the DESTINATION, so
  // writing the cache here would evict the hot destination on every
  // frame. Not touching it is safe: a refresh updates its slot in place,
  // and an insert lands only on an empty or tombstone slot -- never on
  // the live slot a valid cache entry points at.
  const std::uint64_t key = src.value();
  const std::uint64_t key_port = (key << 16) | port;
  std::size_t i = slot_index(key);
  std::size_t insert_at = slots_.size();  // first tombstone on the probe path
  while (true) {
    Slot& s = slots_[i];
    if (s.key() == key) {  // refresh in place
      s.key_port = key_port;
      s.learned = now;
      return;
    }
    if (s.key_port == kEmptySlot) break;
    if (s.key_port == kTombstoneSlot && insert_at == slots_.size()) insert_at = i;
    i = (i + 1) & (slots_.size() - 1);
  }
  if (insert_at == slots_.size()) {
    insert_at = i;
    used_ += 1;  // consuming a fresh slot, not recycling a tombstone
  }
  slots_[insert_at] = Slot{key_port, now};
  size_ += 1;
}

std::optional<active::PortId> MacTable::lookup(ether::MacAddress dst,
                                               netsim::TimePoint now) const {
  if (size_ == 0) return std::nullopt;
  const std::uint64_t key = dst.value();
  // Both slot sentinels carry the zero key (learn() rejects it, so no
  // live entry can); without this guard the probe would "find" the first
  // empty slot and return its port bits.
  if (key == kEmptyKey) return std::nullopt;
  // Destination-cache fast path: re-validate the cached slot (learn and
  // expire move or retire slots, and they reset the cache; a matching key
  // in the cached slot is always the live entry).
  if (key == cached_key_ && slots_[cached_slot_].key() == key) {
    const Slot& s = slots_[cached_slot_];
    if (now - s.learned > horizon()) return std::nullopt;  // stale
    return s.port();
  }
  std::size_t i = slot_index(key);
  while (true) {
    const Slot& s = slots_[i];
    if (s.key() == key) {
      cached_key_ = key;
      cached_slot_ = i;
      if (now - s.learned > horizon()) return std::nullopt;  // stale
      return s.port();
    }
    if (s.key_port == kEmptySlot) return std::nullopt;
    i = (i + 1) & (slots_.size() - 1);
  }
}

std::size_t MacTable::expire(netsim::TimePoint now) {
  std::size_t removed = 0;
  for (Slot& s : slots_) {
    if (!s.live()) continue;
    if (now - s.learned > horizon()) {
      s = Slot{kTombstoneSlot};  // keeps probe chains over this slot intact
      ++removed;
    }
  }
  size_ -= removed;
  // A sweep that removed nothing moved no slot: keep the hot cache (the
  // common steady state -- the periodic sweep must not defeat it).
  if (removed > 0) reset_dest_cache();
  if (size_ == 0 && used_ != 0) {
    // Nothing live: every slot is empty or tombstone, so probe chains are
    // moot -- reset to a clean array instead of carrying the tombstones.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
  }
  return removed;
}

void MacTable::clear() {
  slots_.clear();
  size_ = 0;
  used_ = 0;
  reset_dest_cache();
}

std::vector<MacTable::Entry> MacTable::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (const Slot& s : slots_) {
    if (!s.live()) continue;
    std::array<std::uint8_t, ether::MacAddress::kSize> octets{};
    for (std::size_t b = 0; b < octets.size(); ++b) {
      octets[b] = static_cast<std::uint8_t>(s.key() >> (8 * (octets.size() - 1 - b)));
    }
    out.push_back(Entry{ether::MacAddress(octets), s.port(), s.learned});
  }
  return out;
}

LearningBridgeSwitchlet::LearningBridgeSwitchlet(std::shared_ptr<ForwardingPlane> plane,
                                                 netsim::Duration aging,
                                                 netsim::Duration sweep_interval)
    : plane_(std::move(plane)),
      table_(aging, netsim::seconds(15)),
      sweep_interval_(sweep_interval) {
  if (!plane_) throw std::invalid_argument("LearningBridgeSwitchlet: null plane");
  if (sweep_interval_ <= netsim::Duration::zero()) {
    // aging/4, floored at 1 s, but never longer than the aging horizon
    // itself (sub-second aging keeps sweep == aging; a clamp() would hit
    // its lo > hi precondition there).
    sweep_interval_ = std::min(std::max(aging / 4, netsim::seconds(1)), aging);
  }
}

void LearningBridgeSwitchlet::start(active::SafeEnv& env) {
  env_ = &env;
  // Replace the switching function from the dumb bridge, keeping the old
  // one so stop() can restore it.
  previous_ = plane_->set_switch_function(
      [this](const active::Packet& p) { switch_function(p); });
  env.funcs().register_func("bridge.learning.table_size", [this](const std::string&) {
    return std::to_string(table_.size());
  });
  env.funcs().register_func("bridge.learning.flush", [this](const std::string&) {
    table_.clear();
    return std::string("flushed");
  });
  running_ = true;
  if (table_.size() > 0) schedule_sweep();  // restart with a warm table
  env.log().info("bridge.learning", "self-learning enabled");
}

void LearningBridgeSwitchlet::stop() {
  if (!running_) return;
  env_->timers().cancel(sweep_timer_);
  sweep_armed_ = false;
  plane_->set_switch_function(std::move(previous_));
  env_->funcs().unregister_func("bridge.learning.table_size");
  env_->funcs().unregister_func("bridge.learning.flush");
  running_ = false;
}

LearningBridgeSwitchlet::~LearningBridgeSwitchlet() { *alive_ = false; }

void LearningBridgeSwitchlet::schedule_sweep() {
  // Periodically drop expired entries so an idle, long-lived bridge does
  // not keep every MAC it ever heard (lookup alone never erases). The
  // timer only lives while the table has something to age: it re-arms
  // after a sweep that left entries behind, or on the next learn -- so a
  // quiet bridge keeps the scheduler empty and an unbounded run() still
  // terminates. Cancelled on stop(); stale fires after a stop/start are
  // harmless because the new timer replaces sweep_timer_.
  sweep_armed_ = true;
  sweep_timer_ =
      env_->timers().schedule_after(sweep_interval_, [this, alive = alive_] {
        if (!*alive || !running_) return;
        sweep_armed_ = false;
        table_.set_fast_aging(plane_->fast_aging());
        stats_.expired += table_.expire(env_->timers().now());
        stats_.sweeps += 1;
        if (table_.size() > 0) schedule_sweep();
      });
}

void LearningBridgeSwitchlet::switch_function(const active::Packet& packet) {
  const ether::Frame& frame = packet.frame();
  const netsim::TimePoint now = packet.received_at;
  table_.set_fast_aging(plane_->fast_aging());

  // Learn the source location (802.1D: in Learning and Forwarding states).
  if (plane_->may_learn(packet.ingress)) {
    table_.learn(frame.src, packet.ingress, now);
    stats_.learned += 1;
    if (!sweep_armed_ && table_.size() > 0) schedule_sweep();
  }

  if (!plane_->may_forward(packet.ingress)) {
    plane_->stats().dropped_ingress += 1;
    return;
  }

  // Group destinations always flood (footnote 3). Forwarding hands the
  // received wire buffer straight back out: encode-once, fan out by
  // refcount.
  if (frame.dst.is_group()) {
    stats_.floods += 1;
    plane_->flood(packet.wire, packet.ingress);
    return;
  }

  const auto port = table_.lookup(frame.dst, now);
  if (!port.has_value()) {
    // Not yet learned: flood.
    stats_.floods += 1;
    plane_->flood(packet.wire, packet.ingress);
    return;
  }
  if (*port == packet.ingress) {
    // Destination is on the segment the frame came from: filter it.
    stats_.filtered += 1;
    plane_->stats().dropped_local += 1;
    return;
  }
  stats_.hits += 1;
  plane_->send_to(*port, packet.wire);
}

}  // namespace ab::bridge
