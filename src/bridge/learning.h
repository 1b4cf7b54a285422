// The second switchlet: self-learning.
//
// Paper section 5.3: "This switchlet replaces the switching function from
// the dumb bridge with one that learns the locations of the hosts on the
// network. For each packet received, the triple (source address, current
// time, input port) is placed into a hash table keyed by the source
// address, replacing any previous entry. Next, the hash table is searched
// for the destination address... If a match is found and is current, the
// packet is sent out on the port indicated unless that was the port on
// which the packet was received. If no match is found... the packet is sent
// out on all ports except the one on which it arrived."
//
// Footnote 3: source learning is bypassed for group source addresses, and
// group destinations always flood.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/active/switchlet.h"
#include "src/bridge/forwarding.h"
#include "src/netsim/arena.h"
#include "src/netsim/time.h"

namespace ab::bridge {

/// The host-location table: MAC -> (port, last-seen time), with aging. The
/// 802.1D default aging time is 300 s; a topology change shortens it to the
/// forward delay ("fast aging").
///
/// Storage is a single open-addressing hash table -- linear probing over a
/// power-of-two slot array keyed on the raw 48-bit address -- so the
/// per-frame destination lookup on the forwarding fast path touches one
/// contiguous array with no bucket chains and no per-entry allocation.
/// Expired entries leave tombstones that are recycled by the next learn of
/// a colliding address and swept out whenever the table grows. On top sits
/// a one-entry destination cache: Jain's DEC-TR-592 measured bridge
/// traffic heavily skewed toward a small destination working set, so a
/// hot destination's repeat lookups skip the probe entirely. One entry
/// beat a 4-way cache on both a skewed-burst and an interleaved-flows
/// trace (see docs/BENCHMARKS.md): the Fibonacci-hashed table behind it
/// resolves a miss in ~one probe, so wider ways cost more than they hit.
class MacTable {
 public:
  struct Entry {
    ether::MacAddress mac;
    active::PortId port = active::kNoPort;
    netsim::TimePoint learned{};
  };

  MacTable() : MacTable(netsim::seconds(300)) {}
  /// `slab_arena` (optional) backs the slot array: growth allocates from
  /// the arena instead of the heap (deallocation of a retired generation
  /// is deferred to arena teardown -- bounded by geometric growth). The
  /// arena must outlive the table's last learn(), and a sharded cell must
  /// hand each bridge ITS region's arena: the table grows on the region's
  /// worker thread mid-window.
  explicit MacTable(netsim::Duration aging,
                    netsim::Duration fast_aging = netsim::seconds(15),
                    netsim::Arena* slab_arena = nullptr)
      : aging_(aging),
        fast_aging_(fast_aging),
        slots_(netsim::ArenaAllocator<Slot>(slab_arena)) {}

  /// Records (source address, now, port), replacing any previous entry.
  /// Group and zero addresses are never learned.
  void learn(ether::MacAddress src, active::PortId port, netsim::TimePoint now);

  /// Current entry for `dst`, honoring the active aging horizon.
  [[nodiscard]] std::optional<active::PortId> lookup(ether::MacAddress dst,
                                                     netsim::TimePoint now) const;

  /// Switches between normal and fast aging (topology change).
  void set_fast_aging(bool on) { fast_ = on; }

  /// Drops entries older than the active horizon; returns how many.
  std::size_t expire(netsim::TimePoint now);

  [[nodiscard]] std::size_t size() const { return size_; }
  void clear();

  /// Live entries in table order (a rebuilt snapshot: diagnostics/tests).
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Current slot-array size (tests assert growth/load-factor behavior).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  /// Slot keys are the 48-bit address value; the two sentinels live
  /// outside that range (kEmpty doubles as the zero address, which learn()
  /// rejects, so it can never collide with a live key).
  static constexpr std::uint64_t kEmptyKey = 0;
  static constexpr std::uint64_t kTombstoneKey = std::uint64_t{1} << 48;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    active::PortId port = active::kNoPort;
    netsim::TimePoint learned{};
  };
  /// Slot storage draws from the construction-time arena when one was
  /// given (see the constructor), plain heap otherwise.
  using SlotVector = std::vector<Slot, netsim::ArenaAllocator<Slot>>;

  [[nodiscard]] netsim::Duration horizon() const { return fast_ ? fast_aging_ : aging_; }

  /// Fibonacci hash of a 48-bit key into the current power-of-two table.
  [[nodiscard]] std::size_t slot_index(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  /// Rebuilds the slot array (live entries only, tombstones dropped) at a
  /// capacity sized for `for_size` live entries.
  void grow(std::size_t for_size);

  void reset_dest_cache() const { cached_key_ = kEmptyKey; }

  netsim::Duration aging_;
  netsim::Duration fast_aging_;
  bool fast_ = false;
  SlotVector slots_;          ///< power-of-two; empty until the first learn
  std::size_t size_ = 0;      ///< live entries
  std::size_t used_ = 0;      ///< live entries + tombstones
  /// Destination cache: the key and slot of the previous successful
  /// lookup. Written ONLY by lookup() -- the datapath learns the source
  /// right before looking up the destination, so a learn() that wrote the
  /// cache would evict the hot destination every frame. Reset by anything
  /// that moves or retires slots (grow/expire/clear); learn() never does
  /// either to a live cached slot.
  mutable std::uint64_t cached_key_ = kEmptyKey;
  mutable std::size_t cached_slot_ = 0;
};

/// Per-switchlet counters.
struct LearningStats {
  std::uint64_t learned = 0;       ///< table inserts/refreshes
  std::uint64_t hits = 0;          ///< destination found and current
  std::uint64_t floods = 0;        ///< unknown or group destination
  std::uint64_t filtered = 0;      ///< destination behind the ingress port
  std::uint64_t expired = 0;       ///< entries dropped by the periodic sweep
  std::uint64_t sweeps = 0;        ///< periodic expiry sweeps run
};

class LearningBridgeSwitchlet final : public active::Switchlet {
 public:
  /// `sweep_interval` controls the periodic expiry sweep; zero picks
  /// aging/4 clamped to [1s, aging]. (lookup() already ignores stale
  /// entries, but without the sweep a long simulation's table would keep
  /// every MAC it ever saw.)
  /// `mac_arena` (optional) backs the MacTable's slot array -- the
  /// topology builders pass their cell arena (per region when sharded) so
  /// a thousand-bridge cell keeps no per-bridge heap tables.
  LearningBridgeSwitchlet(std::shared_ptr<ForwardingPlane> plane,
                          netsim::Duration aging = netsim::seconds(300),
                          netsim::Duration sweep_interval = netsim::Duration::zero(),
                          netsim::Arena* mac_arena = nullptr);
  ~LearningBridgeSwitchlet() override;

  [[nodiscard]] std::string_view name() const override { return "bridge.learning"; }

  void start(active::SafeEnv& env) override;
  void stop() override;

  [[nodiscard]] const MacTable& table() const { return table_; }
  [[nodiscard]] MacTable& table() { return table_; }
  [[nodiscard]] const LearningStats& stats() const { return stats_; }
  [[nodiscard]] netsim::Duration sweep_interval() const { return sweep_interval_; }

 private:
  void switch_function(const active::Packet& packet);
  void schedule_sweep();

  std::shared_ptr<ForwardingPlane> plane_;
  active::SafeEnv* env_ = nullptr;
  MacTable table_;
  LearningStats stats_;
  ForwardingPlane::SwitchFunction previous_;
  netsim::Duration sweep_interval_;
  netsim::EventId sweep_timer_{};
  bool sweep_armed_ = false;
  /// Lifetime token captured by the sweep timer: a switchlet destroyed
  /// without stop() (whole node torn down) must not leave a timer that
  /// fires into freed memory.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool running_ = false;
};

}  // namespace ab::bridge
