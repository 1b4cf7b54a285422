#include "src/stack/udp.h"

#include <gtest/gtest.h>

namespace ab::stack {
namespace {

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

/// encode_udp's datagram, without the IP headroom it is built behind.
util::ByteBuffer datagram_bytes(const UdpDatagram& d) {
  const util::ByteBuffer packet = encode_udp(kSrc, kDst, d);
  EXPECT_EQ(packet.size(), Ipv4Header::kSize + 8 + d.payload.size());
  const util::ByteView datagram = transport_bytes(packet);
  return util::ByteBuffer(datagram.begin(), datagram.end());
}

TEST(Udp, EncodeDecodeRoundTrip) {
  UdpDatagram d;
  d.src_port = 12345;
  d.dst_port = 69;
  d.payload = {1, 2, 3, 4, 5, 6, 7};
  const util::ByteBuffer wire = datagram_bytes(d);
  EXPECT_EQ(wire.size(), 8u + d.payload.size());
  const auto back = decode_udp(kSrc, kDst, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_port, 12345);
  EXPECT_EQ(back->dst_port, 69);
  EXPECT_EQ(back->payload, d.payload);
}

TEST(Udp, EmptyPayloadRoundTrips) {
  UdpDatagram d;
  d.src_port = 1;
  d.dst_port = 2;
  const auto back = decode_udp(kSrc, kDst, datagram_bytes(d));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(Udp, ChecksumCoversPseudoHeader) {
  UdpDatagram d;
  d.src_port = 7;
  d.dst_port = 8;
  d.payload = {9, 9};
  const util::ByteBuffer wire = datagram_bytes(d);
  // Decoding against different endpoint IPs must fail the checksum.
  const auto back = decode_udp(Ipv4Addr(10, 0, 0, 99), kDst, wire);
  EXPECT_FALSE(back.has_value());
}

TEST(Udp, PayloadCorruptionDetected) {
  UdpDatagram d;
  d.src_port = 7;
  d.dst_port = 8;
  d.payload = {1, 2, 3, 4};
  util::ByteBuffer wire = datagram_bytes(d);
  wire[10] ^= 0x01;
  EXPECT_FALSE(decode_udp(kSrc, kDst, wire).has_value());
}

TEST(Udp, ZeroChecksumMeansUnverified) {
  UdpDatagram d;
  d.src_port = 7;
  d.dst_port = 8;
  d.payload = {5, 5};
  util::ByteBuffer wire = datagram_bytes(d);
  wire[6] = 0;
  wire[7] = 0;
  // Now corrupt the payload; with checksum zero the RFC says accept.
  wire[9] ^= 0xFF;
  EXPECT_TRUE(decode_udp(kSrc, kDst, wire).has_value());
}

TEST(Udp, DecodeRejectsShortAndBadLength) {
  EXPECT_FALSE(decode_udp(kSrc, kDst, util::ByteBuffer{1, 2, 3}).has_value());
  UdpDatagram d;
  d.src_port = 1;
  d.dst_port = 2;
  d.payload = {1, 2, 3};
  util::ByteBuffer wire = datagram_bytes(d);
  wire[4] = 0xFF;  // length field far beyond buffer
  wire[5] = 0xFF;
  EXPECT_FALSE(decode_udp(kSrc, kDst, wire).has_value());
}

TEST(Udp, TrailingPaddingIgnoredViaLengthField) {
  UdpDatagram d;
  d.src_port = 3;
  d.dst_port = 4;
  d.payload = {0xAB};
  util::ByteBuffer wire = datagram_bytes(d);
  wire.resize(wire.size() + 30, 0);  // Ethernet minimum-frame padding
  const auto back = decode_udp(kSrc, kDst, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, (util::ByteBuffer{0xAB}));
}

}  // namespace
}  // namespace ab::stack
