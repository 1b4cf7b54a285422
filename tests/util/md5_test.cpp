// The RFC 1321 appendix test suite plus streaming-equivalence checks: the
// loader's interface-digest verification is only as trustworthy as this
// implementation.
#include "src/util/md5.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ab::util {
namespace {

struct Rfc1321Case {
  std::string input;
  std::string digest;
};

// Names each case by its reference digest. Without it the test names carry
// a byte dump of the struct, heap addresses included, and change every run.
void PrintTo(const Rfc1321Case& c, std::ostream* os) { *os << c.digest; }

class Md5Rfc1321 : public ::testing::TestWithParam<Rfc1321Case> {};

TEST_P(Md5Rfc1321, MatchesReferenceDigest) {
  const auto& [input, digest] = GetParam();
  EXPECT_EQ(md5(input).hex(), digest);
}

INSTANTIATE_TEST_SUITE_P(
    ReferenceVectors, Md5Rfc1321,
    ::testing::Values(
        Rfc1321Case{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Rfc1321Case{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Rfc1321Case{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Rfc1321Case{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Rfc1321Case{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
        Rfc1321Case{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                    "d174ab98d277d9f5a5611c2c9f419d9f"},
        Rfc1321Case{"1234567890123456789012345678901234567890123456789012345678901234"
                    "5678901234567890",
                    "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, StreamingMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog, repeatedly, "
                           "until block boundaries are well exercised";
  const Md5Digest want = md5(text);
  // Feed in every possible two-part split.
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    Md5 h;
    h.update(std::string_view(text).substr(0, cut));
    h.update(std::string_view(text).substr(cut));
    EXPECT_EQ(h.finish(), want) << "split at " << cut;
  }
}

TEST(Md5, ExactBlockBoundaries) {
  // 55/56/57 and 63/64/65 bytes exercise the padding edge cases.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 121u, 128u}) {
    const std::string text(len, 'x');
    Md5 h;
    h.update(text);
    const Md5Digest streamed = h.finish();
    EXPECT_EQ(streamed, md5(text)) << "len " << len;
  }
}

TEST(Md5, UpdateAfterFinishThrows) {
  Md5 h;
  h.update(std::string_view("abc"));
  (void)h.finish();
  EXPECT_THROW(h.update(std::string_view("d")), std::logic_error);
  Md5 h2;
  (void)h2.finish();
  EXPECT_THROW((void)h2.finish(), std::logic_error);
}

TEST(Md5, DigestEqualityAndHex) {
  const Md5Digest a = md5("abc");
  const Md5Digest b = md5("abc");
  const Md5Digest c = md5("abd");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hex().size(), 32u);
}

TEST(Md5, LongInputCrossesManyBlocks) {
  // A million 'a's: classic extended vector.
  const std::string chunk(1000, 'a');
  Md5 h;
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().hex(), "7707d6ae4e027c70eea2a935c2296f21");
}

}  // namespace
}  // namespace ab::util
