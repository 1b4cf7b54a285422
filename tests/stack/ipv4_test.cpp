#include "src/stack/ipv4.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/stack/checksum.h"

namespace ab::stack {
namespace {

util::ByteBuffer copy_of(util::ByteView bytes) {
  return util::ByteBuffer(bytes.begin(), bytes.end());
}

TEST(Ipv4Addr, ParseAndFormat) {
  const auto a = Ipv4Addr::parse("10.0.0.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.0.1");
  EXPECT_EQ(a->value(), 0x0A000001u);
  EXPECT_EQ(Ipv4Addr(192, 168, 1, 200).to_string(), "192.168.1.200");
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0.256").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.0.0.x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10..0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1000.0.0.1").has_value());
}

TEST(Ipv4Header, EncodeDecodeRoundTrip) {
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.src = Ipv4Addr(10, 0, 0, 1);
  h.dst = Ipv4Addr(10, 0, 0, 2);
  h.identification = 0xBEEF;
  h.ttl = 31;
  const util::ByteBuffer payload = {1, 2, 3, 4, 5};
  const util::ByteBuffer wire = h.encode(payload);
  EXPECT_EQ(wire.size(), Ipv4Header::kSize + payload.size());

  const auto back = Ipv4Header::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header.src, h.src);
  EXPECT_EQ(back->header.dst, h.dst);
  EXPECT_EQ(back->header.identification, 0xBEEF);
  EXPECT_EQ(back->header.ttl, 31);
  EXPECT_EQ(back->header.protocol, 17);
  EXPECT_EQ(copy_of(back->payload), payload);
  EXPECT_EQ(back->payload.data(), wire.data() + Ipv4Header::kSize);  // a view
  EXPECT_FALSE(back->header.is_fragment());
}

TEST(Ipv4Header, FragmentFieldsRoundTrip) {
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  h.more_fragments = true;
  h.fragment_offset = 185;  // x8 = offset 1480
  const util::ByteBuffer wire = h.encode(util::ByteBuffer{});
  const auto back = Ipv4Header::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->header.more_fragments);
  EXPECT_FALSE(back->header.dont_fragment);
  EXPECT_EQ(back->header.fragment_offset, 185);
  EXPECT_TRUE(back->header.is_fragment());
}

TEST(Ipv4Header, DontFragmentBitRoundTrips) {
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  h.dont_fragment = true;
  const util::ByteBuffer wire = h.encode(util::ByteBuffer{});
  const auto back = Ipv4Header::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->header.dont_fragment);
  EXPECT_FALSE(back->header.is_fragment());
}

TEST(Ipv4Header, DecodeRejectsCorruptChecksum) {
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  util::ByteBuffer wire = h.encode(util::ByteBuffer{9, 9, 9});
  wire[8] ^= 0xFF;  // TTL
  const auto back = Ipv4Header::decode(wire);
  EXPECT_FALSE(back.has_value());
  EXPECT_NE(back.error().find("checksum"), std::string::npos);
}

TEST(Ipv4Header, DecodeRejectsShortAndWrongVersion) {
  const util::ByteBuffer short_packet(10, 0);
  EXPECT_FALSE(Ipv4Header::decode(short_packet).has_value());
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  util::ByteBuffer wire = h.encode(util::ByteBuffer{});
  wire[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::decode(wire).has_value());
}

TEST(Ipv4Header, DecodeRejectsBadTotalLength) {
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  util::ByteBuffer wire = h.encode(util::ByteBuffer{1, 2, 3, 4});
  // Claim a total length beyond the buffer; fix the checksum so only the
  // length check can fire.
  wire[2] = 0xFF;
  wire[3] = 0xFF;
  wire[10] = 0;
  wire[11] = 0;
  const std::uint16_t csum =
      internet_checksum(util::ByteView(wire).first(Ipv4Header::kSize));
  wire[10] = static_cast<std::uint8_t>(csum >> 8);
  wire[11] = static_cast<std::uint8_t>(csum);
  EXPECT_FALSE(Ipv4Header::decode(wire).has_value());
}

TEST(Ipv4Header, TrailingEthernetPaddingIsIgnored) {
  // Ethernet pads short frames; decode must honor total_length.
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  util::ByteBuffer wire = h.encode(util::ByteBuffer{0xAA});
  wire.resize(wire.size() + 25, 0);  // simulated padding
  const auto back = Ipv4Header::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(copy_of(back->payload), (util::ByteBuffer{0xAA}));
}

TEST(Ipv4Header, EncodeRejectsOversizedPacket) {
  Ipv4Header h;
  h.src = Ipv4Addr(1, 1, 1, 1);
  h.dst = Ipv4Addr(2, 2, 2, 2);
  EXPECT_THROW((void)h.encode(util::ByteBuffer(0x10000, 0)), std::length_error);
  util::ByteBuffer oversized(0x10000, 0);
  EXPECT_THROW(h.write_in_place(oversized), std::length_error);
  util::ByteBuffer no_room(Ipv4Header::kSize - 1, 0);
  EXPECT_THROW(h.write_in_place(no_room), std::length_error);
}

TEST(Ipv4Header, WriteInPlaceFillsTheHeadroomAndLeavesThePayload) {
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.src = Ipv4Addr(10, 0, 0, 1);
  h.dst = Ipv4Addr(10, 0, 0, 2);
  h.identification = 77;
  const util::ByteBuffer payload = {5, 4, 3, 2, 1};
  util::ByteBuffer packet = h.encode(payload);
  std::fill_n(packet.begin(), Ipv4Header::kSize, 0xEE);  // stale headroom bytes
  h.write_in_place(packet);
  EXPECT_EQ(packet, h.encode(payload));
}

}  // namespace
}  // namespace ab::stack
