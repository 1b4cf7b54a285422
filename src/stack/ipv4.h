// Minimal IPv4 (RFC 791) header codec.
//
// The paper's network loader implements "a minimal IP sufficient for our
// purposes. (It does not, for example, implement fragmentation.)" -- the
// codec here carries the fragmentation fields so the *host* stack can
// fragment/reassemble like the Linux endpoints of the testbed, while the
// active node's mini-IP (active/netloader) deliberately drops fragments,
// mirroring the paper's restriction.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ab::stack {

/// IP protocol numbers used by this stack.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// A 32-bit IPv4 address. Value type, ordered, hashable.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((static_cast<std::uint32_t>(a) << 24) |
               (static_cast<std::uint32_t>(b) << 16) |
               (static_cast<std::uint32_t>(c) << 8) | d) {}

  /// Parses dotted-quad "10.0.0.1". nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv4Addr> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] constexpr bool is_zero() const { return value_ == 0; }

  friend constexpr auto operator<=>(const Ipv4Addr&, const Ipv4Addr&) = default;

 private:
  std::uint32_t value_ = 0;
};

/// Flag bits + fragment offset handling for the 16-bit frag field.
///
/// Send side: the transport encoders (encode_tcp, encode_udp,
/// IcmpEcho::encode) build their message behind kSize bytes of headroom,
/// and the sender writes the header into that headroom in place
/// (write_in_place), so an unfragmented packet is one buffer written once.
/// Only the host stack's fragmenter copies payload into new packets
/// (encode). Receive side: decode returns a view into the bytes it was
/// given.
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  ///< we never emit options
  static constexpr std::uint8_t kDefaultTtl = 64;

  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  ///< header + payload, filled by encoding
  std::uint16_t identification = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  ///< in 8-byte units
  std::uint8_t ttl = kDefaultTtl;
  std::uint8_t protocol = 0;
  Ipv4Addr src;
  Ipv4Addr dst;

  [[nodiscard]] bool is_fragment() const {
    return more_fragments || fragment_offset != 0;
  }

  /// Completes a packet built behind headroom: writes this header, with
  /// total length packet.size() and a correct checksum, over the first
  /// kSize bytes; the rest of `packet` is the payload, left untouched.
  /// Throws std::length_error when the packet is shorter than the header
  /// or longer than 65535 bytes.
  void write_in_place(std::span<std::uint8_t> packet) const;

  /// Serializes header + a copy of `payload` (the fragmenter's path).
  [[nodiscard]] util::ByteBuffer encode(util::ByteView payload) const;

  /// Parses and validates (version, IHL, checksum, total length). Packets
  /// with options are accepted (options skipped). The payload is a view
  /// into `wire`, cut at total_length (link padding dropped).
  [[nodiscard]] static util::Expected<struct Ipv4PacketView, std::string> decode(
      util::ByteView wire);
  /// A view must not outlive its bytes: decoding a temporary is an error.
  static void decode(util::ByteBuffer&&) = delete;
};

/// A parsed IPv4 packet: the header plus a view of its payload inside the
/// bytes Ipv4Header::decode was given, valid only while they are. Code
/// that keeps a payload past its frame (reassembly) copies it.
struct Ipv4PacketView {
  Ipv4Header header;
  util::ByteView payload;
};

/// The transport message of a packet a transport encoder built: the bytes
/// behind its Ipv4Header::kSize bytes of headroom.
[[nodiscard]] inline util::ByteView transport_bytes(util::ByteView packet) {
  return packet.subspan(Ipv4Header::kSize);
}
void transport_bytes(util::ByteBuffer&&) = delete;

}  // namespace ab::stack

template <>
struct std::hash<ab::stack::Ipv4Addr> {
  std::size_t operator()(const ab::stack::Ipv4Addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
