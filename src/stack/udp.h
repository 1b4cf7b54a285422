// Minimal UDP (RFC 768) codec, matching the third layer of the paper's
// network loader ("The next layer implements a minimal UDP in a similar
// fashion").
#pragma once

#include <cstdint>
#include <string>

#include "src/stack/ipv4.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ab::stack {

/// A decoded UDP datagram.
struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  util::ByteBuffer payload;
};

/// Serializes a datagram behind Ipv4Header::kSize bytes of headroom, which
/// the sender fills with Ipv4Header::write_in_place; the datagram itself
/// starts at that offset. Computes the checksum over the RFC 768 pseudo
/// header (src/dst IP, protocol, UDP length).
[[nodiscard]] util::ByteBuffer encode_udp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                          const UdpDatagram& datagram);

/// Parses and validates a UDP datagram carried between `src_ip`/`dst_ip`.
/// A zero checksum means "not computed" and is accepted, per the RFC. The
/// payload is copied out of `wire`.
[[nodiscard]] util::Expected<UdpDatagram, std::string> decode_udp(Ipv4Addr src_ip,
                                                                  Ipv4Addr dst_ip,
                                                                  util::ByteView wire);

}  // namespace ab::stack
