#include "src/bridge/bpdu.h"

#include <gtest/gtest.h>

namespace ab::bridge {
namespace {

Bpdu sample_config() {
  Bpdu b;
  b.type = BpduType::kConfig;
  b.root = BridgeId{0x1000, ether::MacAddress::local(1, 0)};
  b.root_path_cost = 38;
  b.bridge = BridgeId{0x8000, ether::MacAddress::local(2, 0)};
  b.port_id = 0x8002;
  b.message_age = netsim::seconds(1);
  b.max_age = netsim::seconds(20);
  b.hello_time = netsim::seconds(2);
  b.forward_delay = netsim::seconds(15);
  b.topology_change = true;
  return b;
}

TEST(BridgeId, OrderingPriorityThenMac) {
  const BridgeId low_pri{0x1000, ether::MacAddress::local(9, 0)};
  const BridgeId high_pri{0x8000, ether::MacAddress::local(1, 0)};
  EXPECT_LT(low_pri, high_pri);  // priority dominates
  const BridgeId a{0x8000, ether::MacAddress::local(1, 0)};
  const BridgeId b{0x8000, ether::MacAddress::local(2, 0)};
  EXPECT_LT(a, b);  // MAC breaks ties
}

TEST(BridgeId, ToStringFormat) {
  const BridgeId id{0x8000, ether::MacAddress::local(1, 2)};
  EXPECT_EQ(id.to_string(), "8000." + ether::MacAddress::local(1, 2).to_string());
}

class CodecRoundTrip : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<BpduCodec> codec() const {
    if (GetParam()) return std::make_unique<IeeeBpduCodec>();
    return std::make_unique<DecBpduCodec>();
  }
};

TEST_P(CodecRoundTrip, ConfigBpdu) {
  const auto c = codec();
  const Bpdu b = sample_config();
  const ether::Frame frame = c->encode(b, ether::MacAddress::local(2, 0));
  EXPECT_EQ(frame.dst, c->group_address());
  const auto back = c->decode(frame);
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back.value(), b);
}

TEST_P(CodecRoundTrip, TcnBpdu) {
  const auto c = codec();
  Bpdu tcn;
  tcn.type = BpduType::kTcn;
  const auto back = c->decode(c->encode(tcn, ether::MacAddress::local(3, 0)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, BpduType::kTcn);
}

TEST_P(CodecRoundTrip, SurvivesWireEncode) {
  // Through the full Ethernet encode/decode (FCS, padding).
  const auto c = codec();
  const Bpdu b = sample_config();
  const ether::Frame frame = c->encode(b, ether::MacAddress::local(2, 0));
  const auto wire_back = ether::Frame::decode(frame.encode());
  ASSERT_TRUE(wire_back.has_value());
  const auto back = c->decode(wire_back.value());
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(back.value(), b);
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, CodecRoundTrip, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Ieee" : "Dec";
                         });

TEST(BpduCodecs, AreMutuallyUnintelligible) {
  // The crux of the transition experiment: "We simply required an
  // incompatible packet format so that we could make a transition."
  const IeeeBpduCodec ieee;
  const DecBpduCodec dec;
  const Bpdu b = sample_config();
  EXPECT_FALSE(dec.decode(ieee.encode(b, ether::MacAddress::local(1, 0))).has_value());
  EXPECT_FALSE(ieee.decode(dec.encode(b, ether::MacAddress::local(1, 0))).has_value());
}

// Each encoder reserves its config BPDU's size up front; the payloads are
// exactly that long.
TEST(BpduCodecs, PayloadSizesMatchTheWritersReserve) {
  Bpdu tcn;
  tcn.type = BpduType::kTcn;
  const auto src = ether::MacAddress::local(3, 0);
  EXPECT_EQ(IeeeBpduCodec().encode(sample_config(), src).payload.size(), 35u);
  EXPECT_EQ(IeeeBpduCodec().encode(tcn, src).payload.size(), 4u);
  EXPECT_EQ(DecBpduCodec().encode(sample_config(), src).payload.size(), 41u);
  EXPECT_EQ(DecBpduCodec().encode(tcn, src).payload.size(), 3u);
}

TEST(BpduCodecs, DistinctGroupAddresses) {
  EXPECT_EQ(IeeeBpduCodec().group_address(), ether::MacAddress::all_bridges());
  EXPECT_EQ(DecBpduCodec().group_address(), ether::MacAddress::dec_bridge_group());
  EXPECT_NE(IeeeBpduCodec().group_address(), DecBpduCodec().group_address());
}

TEST(IeeeBpduCodec, RejectsCorruptFields) {
  const IeeeBpduCodec c;
  ether::Frame frame = c.encode(sample_config(), ether::MacAddress::local(1, 0));
  frame.payload[0] = 0xFF;  // protocol identifier
  EXPECT_FALSE(c.decode(frame).has_value());

  frame = c.encode(sample_config(), ether::MacAddress::local(1, 0));
  frame.payload[2] = 0x02;  // version
  EXPECT_FALSE(c.decode(frame).has_value());

  frame = c.encode(sample_config(), ether::MacAddress::local(1, 0));
  frame.payload[3] = 0x55;  // unknown type
  EXPECT_FALSE(c.decode(frame).has_value());

  frame = c.encode(sample_config(), ether::MacAddress::local(1, 0));
  frame.payload.resize(10);  // truncated
  EXPECT_FALSE(c.decode(frame).has_value());
}

TEST(DecBpduCodec, RejectsCorruptFields) {
  const DecBpduCodec c;
  ether::Frame frame = c.encode(sample_config(), ether::MacAddress::local(1, 0));
  frame.payload[0] = 0x00;  // code byte
  EXPECT_FALSE(c.decode(frame).has_value());

  frame = c.encode(sample_config(), ether::MacAddress::local(1, 0));
  frame.payload[1] = 0x77;  // unknown type
  EXPECT_FALSE(c.decode(frame).has_value());
}

TEST(IeeeBpduCodec, TimeFieldsQuantizeTo256ths) {
  const IeeeBpduCodec c;
  Bpdu b = sample_config();
  b.message_age = netsim::milliseconds(1500);
  const auto back = c.decode(c.encode(b, ether::MacAddress::local(1, 0)));
  ASSERT_TRUE(back.has_value());
  // 1.5 s is exactly representable in 1/256 s units.
  EXPECT_EQ(back->message_age, netsim::milliseconds(1500));
}

}  // namespace
}  // namespace ab::bridge
