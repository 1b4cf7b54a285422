#include "src/stack/checksum.h"

#include <bit>
#include <cstring>

namespace ab::stack {
namespace {

/// A native-order load of sizeof(T) bytes, unaligned-safe at any offset.
template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// A 64-bit word's two 32-bit halves, added: congruent to the word modulo
/// 0xFFFF, since 2^32 is.
std::uint64_t halves(std::uint64_t v) { return (v & 0xFFFFFFFFu) + (v >> 32); }

}  // namespace

void InternetChecksum::update(util::ByteView data) {
  // RFC 1071 section 2: the one's-complement sum does not care how its
  // 16-bit words are grouped (A), nor in which byte order they are read
  // (B): the sum of the words as this machine loads them, with its two
  // bytes swapped once at the end, is the sum of the big-endian words. So
  // the loop adds native 8-byte loads into two 64-bit accumulators (two
  // chains, so consecutive adds need not wait on each other) and counts
  // their carries: 2^64 is congruent to 1 modulo 0xFFFF, so a carry out
  // is worth one. Folding once at the end keeps the value modulo 0xFFFF
  // and keeps it zero exactly when the block is all zeros, so finish()
  // returns what the word-at-a-time sum gave.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t acc0 = 0;
  std::uint64_t acc1 = 0;
  std::uint64_t carries0 = 0;
  std::uint64_t carries1 = 0;
  for (; n >= 16; p += 16, n -= 16) {
    const auto v0 = load<std::uint64_t>(p);
    const auto v1 = load<std::uint64_t>(p + 8);
    acc0 += v0;
    carries0 += acc0 < v0;
    acc1 += v1;
    carries1 += acc1 < v1;
  }
  std::uint64_t acc = halves(acc0) + halves(acc1) + carries0 + carries1;
  // The tail in fixed-size loads (2^16 is congruent to 1, so a wider word
  // counts as the sum of its 16-bit words).
  if (n & 8) {
    acc += halves(load<std::uint64_t>(p));
    p += 8;
  }
  if (n & 4) {
    acc += load<std::uint32_t>(p);
    p += 4;
  }
  if (n & 2) {
    acc += load<std::uint16_t>(p);
    p += 2;
  }
  if (n & 1) {
    // Zero padding: an odd last byte is the high byte of its word.
    const std::uint8_t last[2] = {*p, 0};
    acc += load<std::uint16_t>(last);
  }
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  auto sum = static_cast<std::uint16_t>(acc);
  if constexpr (std::endian::native == std::endian::little) sum = __builtin_bswap16(sum);
  sum_ += sum;
}

void InternetChecksum::update_word(std::uint16_t word) { sum_ += word; }

std::uint16_t InternetChecksum::finish() const {
  std::uint32_t s = sum_;
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s);
}

std::uint16_t internet_checksum(util::ByteView data) {
  InternetChecksum c;
  c.update(data);
  return c.finish();
}

bool checksum_ok(util::ByteView data) { return internet_checksum(data) == 0; }

}  // namespace ab::stack
