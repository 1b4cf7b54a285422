#include "src/ether/arp_header.h"

namespace ab::ether {
namespace {

std::uint16_t u16_at(util::ByteView bytes, std::size_t at) {
  return static_cast<std::uint16_t>((bytes[at] << 8) | bytes[at + 1]);
}

}  // namespace

ArpHeaderCheck check_arp_header(util::ByteView payload) {
  if (payload.size() < kArpIpv4Size) return ArpHeaderCheck::kTooShort;
  if (u16_at(payload, 0) != kArpHtypeEthernet) return ArpHeaderCheck::kNotEthernet;
  if (u16_at(payload, 2) != kArpPtypeIpv4) return ArpHeaderCheck::kNotIpv4;
  if (payload[4] != kArpHlenEthernet || payload[5] != kArpPlenIpv4) {
    return ArpHeaderCheck::kBadLengths;
  }
  const std::uint16_t op = arp_op(payload);
  if (op != 1 && op != 2) return ArpHeaderCheck::kUnknownOp;
  return ArpHeaderCheck::kOk;
}

std::uint16_t arp_op(util::ByteView payload) { return u16_at(payload, 6); }

std::uint32_t arp_target_ipv4(util::ByteView payload) {
  return (std::uint32_t{u16_at(payload, 24)} << 16) | u16_at(payload, 26);
}

}  // namespace ab::ether
