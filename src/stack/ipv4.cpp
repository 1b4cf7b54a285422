#include "src/stack/ipv4.h"

#include <charconv>

#include "src/stack/checksum.h"
#include "src/util/string_util.h"

namespace ab::stack {

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const std::string& part : parts) {
    if (part.empty() || part.size() > 3) return std::nullopt;
    unsigned octet = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), octet);
    if (ec != std::errc{} || ptr != part.data() + part.size() || octet > 255) {
      return std::nullopt;
    }
    value = (value << 8) | octet;
  }
  return Ipv4Addr(value);
}

std::string Ipv4Addr::to_string() const {
  return util::format("%u.%u.%u.%u", (value_ >> 24) & 0xFF, (value_ >> 16) & 0xFF,
                      (value_ >> 8) & 0xFF, value_ & 0xFF);
}

util::ByteBuffer Ipv4Header::encode(util::ByteView payload) const {
  const std::size_t total = kSize + payload.size();
  if (total > 0xFFFF) throw std::length_error("IPv4 packet exceeds 65535 bytes");

  util::BufWriter w(total);  // the payload lands in the reserved tail
  w.u8(0x45);  // version 4, IHL 5
  w.u8(tos);
  w.u16(static_cast<std::uint16_t>(total));
  w.u16(identification);
  std::uint16_t frag = fragment_offset & 0x1FFF;
  if (dont_fragment) frag |= 0x4000;
  if (more_fragments) frag |= 0x2000;
  w.u16(frag);
  w.u8(ttl);
  w.u8(protocol);
  w.u16(0);  // checksum placeholder
  w.u32(src.value());
  w.u32(dst.value());

  util::ByteBuffer bytes = w.take();
  const std::uint16_t csum = internet_checksum(util::ByteView(bytes).first(kSize));
  bytes[10] = static_cast<std::uint8_t>(csum >> 8);
  bytes[11] = static_cast<std::uint8_t>(csum);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

util::Expected<Ipv4Packet, std::string> Ipv4Header::decode(
    util::ByteView wire) {
  if (wire.size() < kSize) {
    return util::Unexpected{util::format("IPv4 packet of %zu bytes too short",
                                         wire.size())};
  }
  util::BufReader r(wire);
  const std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4) {
    return util::Unexpected{util::format("IP version %u is not 4", ver_ihl >> 4)};
  }
  const std::size_t header_len = static_cast<std::size_t>(ver_ihl & 0x0F) * 4;
  if (header_len < kSize || header_len > wire.size()) {
    return util::Unexpected{util::format("bad IHL: header length %zu", header_len)};
  }
  if (!checksum_ok(wire.first(header_len))) {
    return util::Unexpected{std::string("IPv4 header checksum mismatch")};
  }

  Ipv4Packet pkt;
  Ipv4Header& h = pkt.header;
  h.tos = r.u8();
  h.total_length = r.u16();
  if (h.total_length < header_len || h.total_length > wire.size()) {
    return util::Unexpected{util::format("total length %u out of range [%zu, %zu]",
                                         h.total_length, header_len, wire.size())};
  }
  h.identification = r.u16();
  const std::uint16_t frag = r.u16();
  h.dont_fragment = (frag & 0x4000) != 0;
  h.more_fragments = (frag & 0x2000) != 0;
  h.fragment_offset = frag & 0x1FFF;
  h.ttl = r.u8();
  h.protocol = r.u8();
  r.skip(2);  // checksum, already verified
  h.src = Ipv4Addr(r.u32());
  h.dst = Ipv4Addr(r.u32());
  if (header_len > kSize) r.skip(header_len - kSize);  // options ignored

  const std::size_t payload_len = h.total_length - header_len;
  const util::ByteView payload = r.view(payload_len);
  pkt.payload.assign(payload.begin(), payload.end());
  return pkt;
}

}  // namespace ab::stack
