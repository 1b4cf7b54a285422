#include "src/stack/checksum.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace ab::stack {
namespace {

/// The word-at-a-time RFC 1071 sum InternetChecksum computed before it
/// went word-wide: the reference the fast path must match exactly.
class BytewiseChecksum {
 public:
  void update(util::ByteView data) {
    std::size_t i = 0;
    for (; i + 1 < data.size(); i += 2) {
      sum_ += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
    }
    if (i < data.size()) sum_ += static_cast<std::uint32_t>(data[i] << 8);
  }
  void update_word(std::uint16_t word) { sum_ += word; }
  [[nodiscard]] std::uint16_t finish() const {
    std::uint32_t s = sum_;
    while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
    return static_cast<std::uint16_t>(~s);
  }

 private:
  std::uint32_t sum_ = 0;
};

std::uint16_t reference_checksum(util::ByteView data) {
  BytewiseChecksum c;
  c.update(data);
  return c.finish();
}

/// 2048 + 8 bytes of the given kind: seeded random, all ones (every word
/// 0xFFFF, so every add carries) or all zeros (the sum that must stay 0).
util::ByteBuffer pattern(int kind) {
  util::ByteBuffer buf(2048 + 8, kind == 1 ? 0xFF : 0x00);
  if (kind == 0) {
    util::Rng rng(7);
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  return buf;
}

TEST(InternetChecksum, Rfc1071WorkedExample) {
  // RFC 1071 section 3 example: words 0x0001 0xf203 0xf4f5 0xf6f7.
  const util::ByteBuffer data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x2ddf0 -> fold -> 0xddf2 -> complement -> 0x220d.
  EXPECT_EQ(internet_checksum(data), 0x220D);
}

TEST(InternetChecksum, ZeroBufferChecksumIsAllOnes) {
  const util::ByteBuffer data(8, 0x00);
  EXPECT_EQ(internet_checksum(data), 0xFFFF);
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const util::ByteBuffer even = {0x12, 0x34, 0xAB, 0x00};
  const util::ByteBuffer odd = {0x12, 0x34, 0xAB};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(InternetChecksum, VerificationOfSelfChecksummedBuffer) {
  // Compute a checksum, embed it, verify the sum over the whole buffer.
  util::ByteBuffer data = {0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00,
                           0x40, 0x11, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                           0x0a, 0x00, 0x00, 0x02};
  const std::uint16_t csum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(csum >> 8);
  data[11] = static_cast<std::uint8_t>(csum);
  EXPECT_TRUE(checksum_ok(data));
  data[12] ^= 0x01;
  EXPECT_FALSE(checksum_ok(data));
}

TEST(InternetChecksum, IncrementalWordFeeding) {
  InternetChecksum a;
  a.update_word(0x0001);
  a.update_word(0xf203);
  a.update_word(0xf4f5);
  a.update_word(0xf6f7);
  EXPECT_EQ(a.finish(), 0x220D);
}

TEST(InternetChecksum, EmptyInput) {
  EXPECT_EQ(internet_checksum(util::ByteBuffer{}), 0xFFFF);
}

TEST(InternetChecksum, MatchesTheBytewiseSumAtEveryLengthAndOffset) {
  // Every length 0..2048 from every start offset 0..7: the word-wide loads
  // see every alignment and every 8-byte-block / 2-byte / odd-tail split.
  for (int kind = 0; kind < 3; ++kind) {
    const util::ByteBuffer buf = pattern(kind);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 2048; ++len) {
        const util::ByteView data = util::ByteView(buf).subspan(offset, len);
        ASSERT_EQ(internet_checksum(data), reference_checksum(data))
            << "kind " << kind << " offset " << offset << " length " << len;
      }
    }
  }
}

TEST(InternetChecksum, IncrementalStackPatternMatchesTheBytewiseSum) {
  // How TCP and UDP feed it: pseudo-header words, then even-length chunks
  // (headers, then payload), then an odd tail closing the sum.
  util::Rng rng(23);
  for (int kind = 0; kind < 3; ++kind) {
    const util::ByteBuffer buf = pattern(kind);
    for (int trial = 0; trial < 200; ++trial) {
      InternetChecksum fast;
      BytewiseChecksum slow;
      for (int w = 0; w < 6; ++w) {
        const auto word = static_cast<std::uint16_t>(rng.uniform(0, 0xFFFF));
        fast.update_word(word);
        slow.update_word(word);
      }
      std::size_t at = rng.uniform(0, 7);
      const std::size_t chunks = rng.uniform(0, 4);
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t len = 2 * rng.uniform(0, 200);
        const util::ByteView chunk = util::ByteView(buf).subspan(at, len);
        fast.update(chunk);
        slow.update(chunk);
        at += len;
      }
      const util::ByteView tail =
          util::ByteView(buf).subspan(at, 2 * rng.uniform(0, 40) + 1);
      fast.update(tail);
      slow.update(tail);
      ASSERT_EQ(fast.finish(), slow.finish()) << "kind " << kind << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace ab::stack
