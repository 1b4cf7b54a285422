// TCP segment and option parser robustness sweeps, run under the same
// ASan/UBSan job as codec_fuzz_test: truncated headers, bogus data offsets,
// random flag soup and structurally broken options must produce a parse
// error, never a crash or an over-read. decode_tcp returns views, so every
// option and payload view it returns must lie inside the input buffer.
// Mirrors the fuzz_decoder discipline of tests/fuzz/codec_fuzz_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/stack/tcp.h"
#include "src/util/rng.h"

namespace ab::stack {
namespace {

const Ipv4Addr kSrc(10, 0, 0, 1);
const Ipv4Addr kDst(10, 0, 0, 2);

/// True when `view` lies within `buffer`.
bool inside(util::ByteView view, util::ByteView buffer) {
  const auto begin = reinterpret_cast<std::uintptr_t>(buffer.data());
  const auto at = reinterpret_cast<std::uintptr_t>(view.data());
  return at >= begin && at + view.size() <= begin + buffer.size();
}

/// Decodes `wire` and, when it parses, checks that the views stay inside it.
void decode_checked(util::ByteView wire) {
  const auto decoded = decode_tcp(kSrc, kDst, wire);
  if (!decoded) return;
  EXPECT_TRUE(inside(decoded->options, wire));
  EXPECT_TRUE(inside(decoded->payload, wire));
  EXPECT_EQ(decoded->options.size() + decoded->payload.size() + TcpSegment::kHeaderSize,
            wire.size());
}

util::ByteBuffer random_bytes(util::Rng& rng, std::size_t max_len) {
  util::ByteBuffer out(rng.index(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return out;
}

util::ByteBuffer valid_segment() {
  TcpSegment s;
  s.src_port = 4001;
  s.dst_port = 5001;
  s.seq = 0x10203040;
  s.ack = 0x0A0B0C0D;
  s.flags = TcpSegment::kSyn | TcpSegment::kAck;
  s.window = 0xFFFF;
  s.options = {2, 4, 0x05, 0xB4};  // MSS 1460
  s.payload = util::ByteBuffer(64, 0x5A);
  const util::ByteBuffer packet = encode_tcp(kSrc, kDst, s);
  const util::ByteView segment = transport_bytes(packet);
  return util::ByteBuffer(segment.begin(), segment.end());
}

class TcpSegmentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpSegmentFuzz, RandomAndMutatedBuffersNeverCrashDecode) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    const util::ByteBuffer junk = random_bytes(rng, 256);
    decode_checked(junk);  // must not crash; most junk fails to parse
  }
  const util::ByteBuffer valid = valid_segment();
  for (int i = 0; i < 400; ++i) {
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
    decode_checked(mutated);
  }
}

TEST_P(TcpSegmentFuzz, RandomOptionBytesNeverCrashParser) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    const util::ByteBuffer options = random_bytes(rng, 64);
    (void)parse_tcp_options(options);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpSegmentFuzz, ::testing::Values(11, 23, 47, 89));

// Targeted structural attacks: every data-offset value, with and without a
// checksum fixed up to match, plus every flag combination. These hit the
// header-length arithmetic the random sweeps may miss.
TEST(TcpSegmentFuzz, EveryDataOffsetIsRejectedOrBounded) {
  const util::ByteBuffer valid = valid_segment();
  for (int offset = 0; offset <= 15; ++offset) {
    util::ByteBuffer mutated = valid;
    mutated[12] = static_cast<std::uint8_t>(offset << 4);
    const auto decoded = decode_tcp(kSrc, kDst, mutated);
    // Offsets below 5 or past the buffer must fail; others may only fail
    // on checksum -- either way, no crash and no over-read.
    if (offset < 5) {
      EXPECT_FALSE(decoded.has_value());
    }
    decode_checked(mutated);
  }
  // Truncate to every length below a full header.
  for (std::size_t len = 0; len < TcpSegment::kHeaderSize; ++len) {
    const util::ByteBuffer head(valid.begin(),
                                valid.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_tcp(kSrc, kDst, head).has_value());
  }
}

TEST(TcpSegmentFuzz, ValidSegmentStillDecodes) {
  // Sanity for the mutation sweeps above: their base buffer is valid.
  const util::ByteBuffer valid = valid_segment();
  const auto decoded = decode_tcp(kSrc, kDst, valid);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  decode_checked(valid);
  EXPECT_EQ(decoded.value().payload.size(), 64u);
  auto options = parse_tcp_options(decoded.value().options);
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options.value().mss.value_or(0), 1460);
}

}  // namespace
}  // namespace ab::stack
