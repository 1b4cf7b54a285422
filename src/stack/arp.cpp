#include "src/stack/arp.h"

#include "src/ether/arp_header.h"
#include "src/util/string_util.h"

namespace ab::stack {

util::ByteBuffer ArpPacket::encode() const {
  util::BufWriter w(ether::kArpIpv4Size);
  w.u16(ether::kArpHtypeEthernet);
  w.u16(ether::kArpPtypeIpv4);
  w.u8(ether::kArpHlenEthernet);
  w.u8(ether::kArpPlenIpv4);
  w.u16(static_cast<std::uint16_t>(op));
  sender_mac.write(w);
  w.u32(sender_ip.value());
  target_mac.write(w);
  w.u32(target_ip.value());
  return w.take();
}

util::Expected<ArpPacket, std::string> ArpPacket::decode(util::ByteView wire) {
  switch (ether::check_arp_header(wire)) {
    case ether::ArpHeaderCheck::kOk:
      break;
    case ether::ArpHeaderCheck::kTooShort:
      return util::Unexpected{util::format("ARP packet of %zu bytes too short",
                                           wire.size())};
    case ether::ArpHeaderCheck::kNotEthernet:
      return util::Unexpected{std::string("ARP: not Ethernet hardware type")};
    case ether::ArpHeaderCheck::kNotIpv4:
      return util::Unexpected{std::string("ARP: not IPv4 protocol type")};
    case ether::ArpHeaderCheck::kBadLengths:
      return util::Unexpected{std::string("ARP: bad address lengths")};
    case ether::ArpHeaderCheck::kUnknownOp:
      return util::Unexpected{util::format("ARP: unknown op %u", ether::arp_op(wire))};
  }
  util::BufReader r(wire);
  r.skip(6);  // htype, ptype, hlen, plen: checked above
  ArpPacket p;
  p.op = static_cast<ArpOp>(r.u16());
  p.sender_mac = ether::MacAddress::read(r);
  p.sender_ip = Ipv4Addr(r.u32());
  p.target_mac = ether::MacAddress::read(r);
  p.target_ip = Ipv4Addr(r.u32());
  return p;
}

ArpPacket ArpPacket::request(ether::MacAddress sender_mac, Ipv4Addr sender_ip,
                             Ipv4Addr target_ip) {
  ArpPacket p;
  p.op = ArpOp::kRequest;
  p.sender_mac = sender_mac;
  p.sender_ip = sender_ip;
  p.target_ip = target_ip;
  return p;
}

ArpPacket ArpPacket::make_reply(ether::MacAddress my_mac) const {
  ArpPacket reply;
  reply.op = ArpOp::kReply;
  reply.sender_mac = my_mac;
  reply.sender_ip = target_ip;
  reply.target_mac = sender_mac;
  reply.target_ip = sender_ip;
  return reply;
}

std::size_t ArpCache::find_slot(std::uint32_t key) const {
  std::size_t slot = slot_of(key);
  while (keys_[slot] != key && keys_[slot] != kEmptyKey) {
    slot = (slot + 1) & (keys_.size() - 1);
  }
  return slot;
}

void ArpCache::grow(std::size_t for_entries) {
  // Capacity for load factor <= 3/4, minimum 8 slots.
  std::size_t capacity = 8;
  while (capacity * 3 < for_entries * 4) capacity *= 2;
  if (capacity <= keys_.size()) return;
  std::vector<std::uint32_t> old_keys = std::move(keys_);
  std::vector<Row> old_rows = std::move(rows_);
  keys_.assign(capacity, kEmptyKey);
  rows_.assign(capacity, Row{});
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey) continue;
    const std::size_t slot = find_slot(old_keys[i]);
    keys_[slot] = old_keys[i];
    rows_[slot] = old_rows[i];
  }
}

void ArpCache::reserve(std::size_t entries) { grow(entries); }

void ArpCache::clear() {
  // Keep the slot array (capacity is tiny and reusable); drop the entries.
  std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  size_ = 0;
}

void ArpCache::insert(Ipv4Addr ip, ether::MacAddress mac, netsim::TimePoint now) {
  if (ip.is_zero()) return;  // 0.0.0.0 is the empty sentinel, never a station
  if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) grow(size_ + 1);
  const std::size_t slot = find_slot(ip.value());
  if (keys_[slot] == kEmptyKey) {
    keys_[slot] = ip.value();
    size_ += 1;
  }
  rows_[slot] = Row{mac, now};
}

bool ArpCache::insert_unless_fresh(Ipv4Addr ip, ether::MacAddress mac,
                                   netsim::TimePoint now, netsim::Duration window) {
  if (ip.is_zero()) return true;  // unmappable: nothing cached, nothing suppressed
  if (!keys_.empty()) {
    const std::size_t slot = find_slot(ip.value());
    if (keys_[slot] == ip.value() && rows_[slot].mac == mac &&
        now - rows_[slot].inserted < window) {
      return false;  // flooded duplicate: keep the original insertion age
    }
  }
  insert(ip, mac, now);
  return true;
}

bool ArpReplySuppressor::should_suppress(Ipv4Addr querier, netsim::TimePoint now,
                                         netsim::Duration window) {
  const auto last = replied_at_.find(querier);
  if (last != replied_at_.end() && now - last->second < window) return true;
  if (replied_at_.size() >= 1024) {
    std::erase_if(replied_at_,
                  [&](const auto& entry) { return now - entry.second >= window; });
  }
  replied_at_[querier] = now;
  return false;
}

std::optional<ether::MacAddress> ArpCache::lookup(Ipv4Addr ip,
                                                  netsim::TimePoint now) const {
  if (keys_.empty() || ip.is_zero()) return std::nullopt;
  const std::size_t slot = find_slot(ip.value());
  if (keys_[slot] != ip.value()) return std::nullopt;
  if (ttl_ != netsim::Duration::zero() && now - rows_[slot].inserted > ttl_) {
    return std::nullopt;
  }
  return rows_[slot].mac;
}

}  // namespace ab::stack
