// The fixed header of an ARP packet for the (Ethernet, IPv4) pair, RFC 826:
//
//   htype(2)=1 ptype(2)=0x0800 hlen(1)=6 plen(1)=4 op(2)=1|2
//   sender_mac(6) sender_ip(4) target_mac(6) target_ip(4)
//
// One check, two users: stack::ArpPacket::decode rejects exactly the
// payloads this check rejects, and netsim::LanSegment uses it to place a
// group ARP frame at the stations whose address is its target. Keeping
// the check in ether lets the segment agree with the stack's parser
// without netsim depending on the stack.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/util/bytes.h"

namespace ab::ether {

/// Why a payload is not a well-formed (Ethernet, IPv4) ARP header.
enum class ArpHeaderCheck {
  kOk,
  kTooShort,     ///< fewer than kArpIpv4Size bytes
  kNotEthernet,  ///< hardware type != 1
  kNotIpv4,      ///< protocol type != 0x0800
  kBadLengths,   ///< hardware/protocol address lengths != 6/4
  kUnknownOp,    ///< op is neither request (1) nor reply (2)
};

/// Size of the (Ethernet, IPv4) ARP packet.
inline constexpr std::size_t kArpIpv4Size = 28;
/// The fixed header fields for the (Ethernet, IPv4) pair.
inline constexpr std::uint16_t kArpHtypeEthernet = 1;
inline constexpr std::uint16_t kArpPtypeIpv4 = 0x0800;
inline constexpr std::uint8_t kArpHlenEthernet = 6;
inline constexpr std::uint8_t kArpPlenIpv4 = 4;

/// Checks the fixed header fields of `payload`, in wire order.
[[nodiscard]] ArpHeaderCheck check_arp_header(util::ByteView payload);

/// The op field. Requires payload.size() >= 8.
[[nodiscard]] std::uint16_t arp_op(util::ByteView payload);

/// The target protocol address as a host-order IPv4 word. Requires a
/// payload that passed check_arp_header.
[[nodiscard]] std::uint32_t arp_target_ipv4(util::ByteView payload);

}  // namespace ab::ether
