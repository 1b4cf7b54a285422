#include "src/stack/icmp.h"

#include <gtest/gtest.h>

#include "src/stack/checksum.h"
#include "src/stack/ipv4.h"

namespace ab::stack {
namespace {

/// IcmpEcho::encode's message, without the IP headroom it is built behind.
util::ByteBuffer message_bytes(const IcmpEcho& e) {
  const util::ByteBuffer packet = e.encode();
  EXPECT_EQ(packet.size(), Ipv4Header::kSize + 8 + e.payload.size());
  const util::ByteView message = transport_bytes(packet);
  return util::ByteBuffer(message.begin(), message.end());
}

TEST(Icmp, EchoRequestRoundTrip) {
  IcmpEcho e;
  e.type = IcmpType::kEchoRequest;
  e.id = 0x1234;
  e.seq = 7;
  e.payload = util::to_bytes("ping payload");
  const auto back = IcmpEcho::decode(message_bytes(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_request());
  EXPECT_EQ(back->id, 0x1234);
  EXPECT_EQ(back->seq, 7);
  EXPECT_EQ(back->payload, e.payload);
}

TEST(Icmp, ReplyPreservesIdSeqPayload) {
  IcmpEcho e;
  e.id = 42;
  e.seq = 9;
  e.payload = {1, 2, 3};
  const util::ByteBuffer request = message_bytes(e);
  const auto view = IcmpEchoView::decode(request);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_request());
  const util::ByteBuffer packet = view->encode_reply();
  const auto reply = IcmpEcho::decode(transport_bytes(packet));
  ASSERT_TRUE(reply.has_value());  // the checksum covers the reply's type
  EXPECT_EQ(reply->type, IcmpType::kEchoReply);
  EXPECT_FALSE(reply->is_request());
  EXPECT_EQ(reply->id, 42);
  EXPECT_EQ(reply->seq, 9);
  EXPECT_EQ(reply->payload, e.payload);
}

TEST(Icmp, ChecksumDetectsCorruption) {
  IcmpEcho e;
  e.id = 1;
  e.seq = 1;
  e.payload = {1, 2, 3, 4};
  util::ByteBuffer wire = message_bytes(e);
  wire[8] ^= 0x10;
  EXPECT_FALSE(IcmpEcho::decode(wire).has_value());
}

TEST(Icmp, DecodeRejectsNonEchoTypes) {
  IcmpEcho e;
  util::ByteBuffer wire = message_bytes(e);
  wire[0] = 3;  // destination unreachable
  // Fix checksum so the type check is what fires.
  wire[2] = 0;
  wire[3] = 0;
  const std::uint16_t csum = internet_checksum(wire);
  wire[2] = static_cast<std::uint8_t>(csum >> 8);
  wire[3] = static_cast<std::uint8_t>(csum);
  const auto back = IcmpEcho::decode(wire);
  EXPECT_FALSE(back.has_value());
  EXPECT_NE(back.error().find("type"), std::string::npos);
}

TEST(Icmp, DecodeRejectsShortMessage) {
  EXPECT_FALSE(IcmpEcho::decode(util::ByteBuffer{8, 0, 0}).has_value());
}

TEST(Icmp, EmptyPayloadRoundTrips) {
  IcmpEcho e;
  e.id = 5;
  e.seq = 6;
  const auto back = IcmpEcho::decode(message_bytes(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

}  // namespace
}  // namespace ab::stack
