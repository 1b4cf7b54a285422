// ICMP echo (RFC 792) -- just enough for the Fig. 9 ping latency experiment
// and the section 7.5 agility measurement, both of which drive ICMP ECHOs
// through the bridge.
#pragma once

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/result.h"

namespace ab::stack {

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kEchoRequest = 8,
};

/// An ICMP echo request or reply.
struct IcmpEcho {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
  util::ByteBuffer payload;

  [[nodiscard]] bool is_request() const { return type == IcmpType::kEchoRequest; }

  /// Serializes with a correct ICMP checksum, behind Ipv4Header::kSize
  /// bytes of headroom (see encode_udp): the message starts at that offset.
  [[nodiscard]] util::ByteBuffer encode() const;

  /// Parses and validates an echo request/reply, copying the payload (see
  /// IcmpEchoView::decode). Non-echo ICMP types are a decode error (the
  /// minimal stack does not speak them).
  [[nodiscard]] static util::Expected<IcmpEcho, std::string> decode(util::ByteView wire);
};

/// A received echo, decoded in place: the header fields by value, the
/// payload a view into the bytes decode was given. It is valid only while
/// those bytes are -- inside the receive callback that decoded it.
struct IcmpEchoView {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t id = 0;
  std::uint16_t seq = 0;
  util::ByteView payload;

  [[nodiscard]] bool is_request() const { return type == IcmpType::kEchoRequest; }

  /// The reply this request elicits (same id/seq/payload), serialized as
  /// IcmpEcho::encode serializes it: the payload is copied once, into the
  /// reply.
  [[nodiscard]] util::ByteBuffer encode_reply() const;

  /// Parses and validates as IcmpEcho::decode does, without copying.
  [[nodiscard]] static util::Expected<IcmpEchoView, std::string> decode(
      util::ByteView wire);
  /// A view must not outlive its bytes: decoding a temporary is an error.
  static void decode(util::ByteBuffer&&) = delete;
};

}  // namespace ab::stack
