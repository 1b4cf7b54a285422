#include "src/stack/icmp.h"

#include "src/ether/frame.h"
#include "src/stack/checksum.h"
#include "src/stack/ipv4.h"
#include "src/util/string_util.h"

namespace ab::stack {

namespace {

util::ByteBuffer encode_echo(IcmpType type, std::uint16_t id, std::uint16_t seq,
                             util::ByteView payload) {
  util::BufWriter w(Ipv4Header::kSize + 8 + payload.size());
  w.zeros(Ipv4Header::kSize);  // headroom for the IP header
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);   // code
  w.u16(0);  // checksum placeholder
  w.u16(id);
  w.u16(seq);
  w.bytes(payload);
  ether::datapath_counters().bytes_copied += payload.size();
  util::ByteBuffer bytes = w.take();
  const std::uint16_t csum = internet_checksum(transport_bytes(bytes));
  bytes[Ipv4Header::kSize + 2] = static_cast<std::uint8_t>(csum >> 8);
  bytes[Ipv4Header::kSize + 3] = static_cast<std::uint8_t>(csum);
  return bytes;
}

}  // namespace

util::ByteBuffer IcmpEcho::encode() const { return encode_echo(type, id, seq, payload); }

util::Expected<IcmpEcho, std::string> IcmpEcho::decode(util::ByteView wire) {
  auto view = IcmpEchoView::decode(wire);
  if (!view) return util::Unexpected{view.error()};
  IcmpEcho echo;
  echo.type = view->type;
  echo.id = view->id;
  echo.seq = view->seq;
  echo.payload.assign(view->payload.begin(), view->payload.end());
  ether::datapath_counters().bytes_copied += view->payload.size();
  return echo;
}

util::ByteBuffer IcmpEchoView::encode_reply() const {
  return encode_echo(IcmpType::kEchoReply, id, seq, payload);
}

util::Expected<IcmpEchoView, std::string> IcmpEchoView::decode(util::ByteView wire) {
  if (wire.size() < 8) {
    return util::Unexpected{util::format("ICMP message of %zu bytes too short",
                                         wire.size())};
  }
  if (!checksum_ok(wire)) {
    return util::Unexpected{std::string("ICMP checksum mismatch")};
  }
  util::BufReader r(wire);
  const std::uint8_t type = r.u8();
  if (type != static_cast<std::uint8_t>(IcmpType::kEchoRequest) &&
      type != static_cast<std::uint8_t>(IcmpType::kEchoReply)) {
    return util::Unexpected{util::format("unsupported ICMP type %u", type)};
  }
  const std::uint8_t code = r.u8();
  if (code != 0) {
    return util::Unexpected{util::format("unsupported ICMP code %u", code)};
  }
  r.skip(2);  // checksum
  IcmpEchoView echo;
  echo.type = static_cast<IcmpType>(type);
  echo.id = r.u16();
  echo.seq = r.u16();
  echo.payload = r.rest();
  return echo;
}

}  // namespace ab::stack
