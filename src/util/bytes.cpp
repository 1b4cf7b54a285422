#include "src/util/bytes.h"

namespace ab::util {

void BufReader::underflow(std::size_t n) const {
  throw BufferUnderflow("need " + std::to_string(n) + " bytes, have " +
                        std::to_string(remaining()));
}

ByteBuffer to_bytes(std::string_view s) {
  return ByteBuffer(s.begin(), s.end());
}

std::string to_string(ByteView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

bool equal_bytes(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace ab::util
