#include "src/stack/checksum.h"

#include <bit>
#include <cstring>

namespace ab::stack {
namespace {

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);  // unaligned-safe at any start offset
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  return v;
}

}  // namespace

void InternetChecksum::update(util::ByteView data) {
  // RFC 1071 section 2: the one's-complement sum does not care how its
  // 16-bit words are grouped. A 32-bit big-endian word (a << 16 | b) is
  // congruent to a + b modulo 0xFFFF, so each 8-byte load adds its two
  // halves to a 64-bit accumulator, which cannot carry out before 2^32
  // loads. Folding once at the end keeps the value modulo 0xFFFF and keeps
  // it zero exactly when the block is all zeros, so finish() returns what
  // the word-at-a-time sum gave.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t acc = 0;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t v = load_be64(p);
    acc += (v >> 32) + (v & 0xFFFFFFFFu);
  }
  for (; n >= 2; p += 2, n -= 2) acc += static_cast<std::uint32_t>((p[0] << 8) | p[1]);
  if (n == 1) acc += static_cast<std::uint32_t>(p[0] << 8);
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  sum_ += static_cast<std::uint32_t>(acc);
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
