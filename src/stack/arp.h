// ARP (RFC 826) for IPv4-over-Ethernet, plus the resolver cache the host
// stack uses. The paper's testbed hosts are ordinary Linux boxes, so their
// traffic starts with ARP exchanges the bridge must forward like any other
// broadcast traffic -- which also makes ARP a natural workload for the
// learning-bridge tests.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ether/mac_address.h"
#include "src/netsim/time.h"
#include "src/stack/ipv4.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ab::stack {

enum class ArpOp : std::uint16_t {
  kRequest = 1,
  kReply = 2,
};

/// An ARP packet for the (Ethernet, IPv4) pair.
struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  ether::MacAddress sender_mac;
  Ipv4Addr sender_ip;
  ether::MacAddress target_mac;  ///< zero in requests
  Ipv4Addr target_ip;

  [[nodiscard]] util::ByteBuffer encode() const;
  [[nodiscard]] static util::Expected<ArpPacket, std::string> decode(
      util::ByteView wire);

  /// who-has `target_ip`? tell `sender_ip` at `sender_mac`.
  [[nodiscard]] static ArpPacket request(ether::MacAddress sender_mac,
                                         Ipv4Addr sender_ip, Ipv4Addr target_ip);

  /// The reply this request elicits, answered by `my_mac`.
  [[nodiscard]] ArpPacket make_reply(ether::MacAddress my_mac) const;
};

/// IP -> MAC cache with per-entry insertion timestamps and optional expiry.
///
/// Storage is structure-of-arrays open addressing -- a flat power-of-two
/// key row (the raw IPv4 word; 0 is the empty sentinel, and 0.0.0.0 is
/// never a valid station address) with parallel MAC and timestamp rows --
/// instead of an unordered_map of nodes. A host's resolver then costs two
/// small flat vectors that start EMPTY, and a lookup is a linear probe
/// over contiguous keys with no bucket chain to chase. There is no per-entry erase (the stack
/// never needed one): stale entries are filtered by ttl at lookup and
/// dropped wholesale by clear().
class ArpCache {
 public:
  /// `ttl` of zero disables expiry.
  explicit ArpCache(netsim::Duration ttl = netsim::Duration::zero()) : ttl_(ttl) {}

  void insert(Ipv4Addr ip, ether::MacAddress mac, netsim::TimePoint now);

  /// Inserts `ip -> mac` unless the identical mapping was already written
  /// less than `window` ago -- a flooded duplicate of the same reply must
  /// not rewrite the entry and silently reset its age. A changed MAC (the
  /// station really moved) always rewrites. Returns false when the
  /// duplicate was suppressed, true when the entry was (re)written.
  bool insert_unless_fresh(Ipv4Addr ip, ether::MacAddress mac,
                           netsim::TimePoint now, netsim::Duration window);

  /// Pre-sizes the table for `entries` peers so resolution-heavy hosts
  /// don't rehash on the traffic path. Buckets are real memory: size to
  /// the peers this host will talk to, not the station population.
  void reserve(std::size_t entries);

  /// Lookup honoring expiry.
  [[nodiscard]] std::optional<ether::MacAddress> lookup(Ipv4Addr ip,
                                                        netsim::TimePoint now) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  void clear();

 private:
  static constexpr std::uint32_t kEmptyKey = 0;  ///< 0.0.0.0: never assigned

  struct Row {
    ether::MacAddress mac;
    netsim::TimePoint inserted;
  };

  [[nodiscard]] std::size_t slot_of(std::uint32_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B9u) >> 16) & (keys_.size() - 1);
  }
  /// Slot holding `key`, or the empty slot where it would go. Requires a
  /// non-full table (growth keeps load <= 3/4).
  [[nodiscard]] std::size_t find_slot(std::uint32_t key) const;
  void grow(std::size_t for_entries);

  netsim::Duration ttl_;
  std::vector<std::uint32_t> keys_;  ///< power-of-two; empty until first insert
  std::vector<Row> rows_;            ///< parallel to keys_
  std::size_t size_ = 0;
};

/// Per-querier suppression of flooded duplicate ARP requests: a flood
/// delivers the same broadcast once per surviving path, and every copy
/// used to draw a reply. Shared by the host stack's ARP responder and the
/// netloader's mini-stack (which answers from per-port MACs, so duplicate
/// replies there flapped the querier's cache mid-transfer). Keep the
/// window well below the querier's retry interval so genuine retries (a
/// lost reply) are always answered.
class ArpReplySuppressor {
 public:
  /// True when a reply to `querier` was already sent less than `window`
  /// ago (the caller should suppress this copy); otherwise records `now`
  /// as the reply time and returns false. Entries are dead once their
  /// window passes; the map is swept lazily when it reaches 1024 entries
  /// so it cannot grow with the querier population of a long simulation.
  bool should_suppress(Ipv4Addr querier, netsim::TimePoint now,
                       netsim::Duration window);

 private:
  std::unordered_map<Ipv4Addr, netsim::TimePoint> replied_at_;
};

}  // namespace ab::stack
