#include "src/stack/udp.h"

#include "src/ether/frame.h"
#include "src/stack/checksum.h"
#include "src/util/string_util.h"

namespace ab::stack {
namespace {

constexpr std::size_t kUdpHeader = 8;

std::uint16_t pseudo_checksum(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                              util::ByteView udp_bytes) {
  InternetChecksum c;
  c.update_word(static_cast<std::uint16_t>(src_ip.value() >> 16));
  c.update_word(static_cast<std::uint16_t>(src_ip.value() & 0xFFFF));
  c.update_word(static_cast<std::uint16_t>(dst_ip.value() >> 16));
  c.update_word(static_cast<std::uint16_t>(dst_ip.value() & 0xFFFF));
  c.update_word(static_cast<std::uint16_t>(IpProto::kUdp));
  c.update_word(static_cast<std::uint16_t>(udp_bytes.size()));
  c.update(udp_bytes);
  return c.finish();
}

}  // namespace

util::ByteBuffer encode_udp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                            const UdpDatagram& datagram) {
  const std::size_t total = kUdpHeader + datagram.payload.size();
  if (total > 0xFFFF) throw std::length_error("UDP datagram exceeds 65535 bytes");

  util::BufWriter w(Ipv4Header::kSize + total);
  w.zeros(Ipv4Header::kSize);  // headroom for the IP header
  w.u16(datagram.src_port);
  w.u16(datagram.dst_port);
  w.u16(static_cast<std::uint16_t>(total));
  w.u16(0);  // checksum placeholder
  w.bytes(datagram.payload);
  ether::datapath_counters().bytes_copied += datagram.payload.size();
  util::ByteBuffer bytes = w.take();

  std::uint16_t csum = pseudo_checksum(src_ip, dst_ip, transport_bytes(bytes));
  if (csum == 0) csum = 0xFFFF;  // RFC 768: zero is transmitted as all-ones
  bytes[Ipv4Header::kSize + 6] = static_cast<std::uint8_t>(csum >> 8);
  bytes[Ipv4Header::kSize + 7] = static_cast<std::uint8_t>(csum);
  return bytes;
}

util::Expected<UdpDatagram, std::string> decode_udp(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                                    util::ByteView wire) {
  if (wire.size() < kUdpHeader) {
    return util::Unexpected{util::format("UDP datagram of %zu bytes too short",
                                         wire.size())};
  }
  util::BufReader r(wire);
  UdpDatagram d;
  d.src_port = r.u16();
  d.dst_port = r.u16();
  const std::uint16_t length = r.u16();
  const std::uint16_t csum = r.u16();
  if (length < kUdpHeader || length > wire.size()) {
    return util::Unexpected{util::format("UDP length %u out of range", length)};
  }
  if (csum != 0) {
    // Verify over the datagram as transmitted (checksum field included).
    if (pseudo_checksum(src_ip, dst_ip, wire.first(length)) != 0) {
      return util::Unexpected{std::string("UDP checksum mismatch")};
    }
  }
  const util::ByteView payload = r.view(length - kUdpHeader);
  d.payload.assign(payload.begin(), payload.end());
  ether::datapath_counters().bytes_copied += payload.size();
  return d;
}

}  // namespace ab::stack
