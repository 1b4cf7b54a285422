// Decoder robustness sweeps: every parser in the tree must reject or
// accept arbitrary bytes without crashing, and must survive random
// mutations of valid messages. This is the C++ discipline standing in for
// the memory safety Caml gave the paper for free: a hostile or corrupted
// frame can produce a parse error, never undefined behaviour. Decoders
// that return views (IPv4) must also return them inside the input buffer.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/active/image.h"
#include "src/bridge/bpdu.h"
#include "src/ether/frame.h"
#include "src/stack/arp.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"
#include "src/stack/tftp.h"
#include "src/stack/udp.h"
#include "src/util/rng.h"

namespace ab {
namespace {

/// True when `view` lies within `buffer`.
bool inside(util::ByteView view, util::ByteView buffer) {
  const auto begin = reinterpret_cast<std::uintptr_t>(buffer.data());
  const auto at = reinterpret_cast<std::uintptr_t>(view.data());
  return at >= begin && at + view.size() <= begin + buffer.size();
}

/// A transport encoder's message without the IP headroom in front of it.
util::ByteBuffer without_headroom(const util::ByteBuffer& packet) {
  const util::ByteView message = stack::transport_bytes(packet);
  return util::ByteBuffer(message.begin(), message.end());
}

util::ByteBuffer random_bytes(util::Rng& rng, std::size_t max_len) {
  util::ByteBuffer out(rng.index(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return out;
}

/// Runs `decode` over random buffers and over mutated valid messages.
template <typename DecodeFn>
void fuzz_decoder(std::uint64_t seed, const util::ByteBuffer& valid,
                  DecodeFn&& decode) {
  util::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    const util::ByteBuffer junk = random_bytes(rng, 256);
    decode(junk);  // must not crash; result is irrelevant
  }
  for (int i = 0; i < 400 && !valid.empty(); ++i) {
    util::ByteBuffer mutated = valid;
    const int op = static_cast<int>(rng.uniform(0, 2));
    if (op == 0) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(rng.uniform(1, 255));
    } else if (op == 1 && mutated.size() > 1) {
      mutated.resize(rng.index(mutated.size()));  // truncate
    } else {
      const util::ByteBuffer extra = random_bytes(rng, 32);
      mutated.insert(mutated.end(), extra.begin(), extra.end());
    }
    decode(mutated);
  }
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, EthernetFrame) {
  const util::ByteBuffer valid =
      ether::Frame::ethernet2(ether::MacAddress::local(1, 0),
                              ether::MacAddress::local(2, 0), ether::EtherType::kIpv4,
                              util::ByteBuffer(100, 0x42))
          .encode();
  fuzz_decoder(GetParam(), valid,
               [](util::ByteView bytes) { (void)ether::Frame::decode(bytes); });
}

TEST_P(CodecFuzz, Ipv4) {
  stack::Ipv4Header h;
  h.src = stack::Ipv4Addr(10, 0, 0, 1);
  h.dst = stack::Ipv4Addr(10, 0, 0, 2);
  h.protocol = 17;
  const util::ByteBuffer valid = h.encode(util::ByteBuffer(64, 0x01));
  fuzz_decoder(GetParam(), valid, [](util::ByteView bytes) {
    const auto decoded = stack::Ipv4Header::decode(bytes);
    if (decoded) {
      EXPECT_TRUE(inside(decoded->payload, bytes));
      EXPECT_EQ(decoded->payload.size(),
                decoded->header.total_length - std::size_t{(bytes[0] & 0x0Fu) * 4u});
    }
  });
}

TEST_P(CodecFuzz, Udp) {
  stack::UdpDatagram d;
  d.src_port = 1;
  d.dst_port = 2;
  d.payload = util::ByteBuffer(32, 0x77);
  const util::ByteBuffer valid = without_headroom(
      stack::encode_udp(stack::Ipv4Addr(1, 1, 1, 1), stack::Ipv4Addr(2, 2, 2, 2), d));
  fuzz_decoder(GetParam(), valid, [](util::ByteView bytes) {
    (void)stack::decode_udp(stack::Ipv4Addr(1, 1, 1, 1), stack::Ipv4Addr(2, 2, 2, 2),
                            bytes);
  });
}

TEST_P(CodecFuzz, Icmp) {
  stack::IcmpEcho echo;
  echo.id = 7;
  echo.seq = 9;
  echo.payload = util::ByteBuffer(48, 0x10);
  fuzz_decoder(GetParam(), without_headroom(echo.encode()),
               [](util::ByteView bytes) { (void)stack::IcmpEcho::decode(bytes); });
}

TEST_P(CodecFuzz, Arp) {
  const stack::ArpPacket req = stack::ArpPacket::request(
      ether::MacAddress::local(1, 0), stack::Ipv4Addr(1, 1, 1, 1),
      stack::Ipv4Addr(2, 2, 2, 2));
  fuzz_decoder(GetParam(), req.encode(),
               [](util::ByteView bytes) { (void)stack::ArpPacket::decode(bytes); });
}

TEST_P(CodecFuzz, Tftp) {
  const util::ByteBuffer valid =
      stack::encode_tftp(stack::TftpRequest{stack::TftpOp::kWrq, "mod.img", "octet"});
  fuzz_decoder(GetParam(), valid,
               [](util::ByteView bytes) { (void)stack::decode_tftp(bytes); });
}

TEST_P(CodecFuzz, SwitchletImage) {
  const util::ByteBuffer valid = active::SwitchletImage::named("bridge.dumb").encode();
  fuzz_decoder(GetParam(), valid, [](util::ByteView bytes) {
    (void)active::SwitchletImage::decode(bytes);
  });
}

TEST_P(CodecFuzz, IeeeBpduPayload) {
  const bridge::IeeeBpduCodec codec;
  bridge::Bpdu b;
  b.root = bridge::BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  b.bridge = b.root;
  const ether::Frame valid = codec.encode(b, ether::MacAddress::local(1, 0));
  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    ether::Frame frame = valid;
    frame.payload = random_bytes(rng, 64);
    (void)codec.decode(frame);
  }
}

TEST_P(CodecFuzz, DecBpduPayload) {
  const bridge::DecBpduCodec codec;
  bridge::Bpdu b;
  b.root = bridge::BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  b.bridge = b.root;
  const ether::Frame valid = codec.encode(b, ether::MacAddress::local(1, 0));
  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    ether::Frame frame = valid;
    frame.payload = random_bytes(rng, 64);
    (void)codec.decode(frame);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(11, 23, 47, 89));

TEST(CodecFuzz, ValidMessagesStillDecodeAfterFuzzRuns) {
  // Sanity: the fuzz helpers above use the same valid buffers; make sure
  // they are indeed valid.
  EXPECT_TRUE(ether::Frame::decode(
                  ether::Frame::ethernet2(ether::MacAddress::local(1, 0),
                                          ether::MacAddress::local(2, 0),
                                          ether::EtherType::kIpv4,
                                          util::ByteBuffer(100, 0x42))
                      .encode())
                  .has_value());
  EXPECT_TRUE(active::SwitchletImage::decode(
                  active::SwitchletImage::named("bridge.dumb").encode())
                  .has_value());
}

}  // namespace
}  // namespace ab
