// Bounds-checked byte-buffer primitives used by every codec in the tree.
//
// All network formats in this repository (Ethernet, IPv4, UDP, ICMP, TFTP,
// BPDUs, switchlet images) are encoded big-endian through BufWriter and
// decoded through BufReader. Both are fail-stop: reading past the end or
// writing through a fixed span throws, so a malformed frame can never cause
// silent memory corruption -- this is the C++ stand-in for the bounds checks
// the paper gets for free from Caml.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ab::util {

/// Owned, growable byte storage. A plain vector alias so callers get the
/// whole STL surface; helpers below add the codec-flavoured operations.
using ByteBuffer = std::vector<std::uint8_t>;

/// Read-only view over encoded bytes.
using ByteView = std::span<const std::uint8_t>;

/// Thrown when a BufReader runs out of input. Codecs catch this at their
/// boundary and turn it into a parse failure; it is never fatal.
class BufferUnderflow : public std::runtime_error {
 public:
  explicit BufferUnderflow(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a fixed-capacity BufWriter would overflow its span.
class BufferOverflow : public std::runtime_error {
 public:
  explicit BufferOverflow(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential big-endian reader over a byte view. Cheap to copy; copying
/// forks the cursor (useful for peeking).
class BufReader {
 public:
  explicit BufReader(ByteView data) : data_(data) {}
  BufReader(const std::uint8_t* data, std::size_t len) : data_(data, len) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }

  /// Copies `len` bytes out of the stream.
  ByteBuffer bytes(std::size_t len) {
    need(len);
    ByteBuffer out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                   data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  /// Zero-copy view of the next `len` bytes.
  ByteView view(std::size_t len) {
    need(len);
    ByteView out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Remaining bytes as a view; consumes them.
  ByteView rest() {
    ByteView out = data_.subspan(pos_);
    pos_ = data_.size();
    return out;
  }

  void fill(std::span<std::uint8_t> dst) {
    need(dst.size());
    std::memcpy(dst.data(), data_.data() + pos_, dst.size());
    pos_ += dst.size();
  }

  void skip(std::size_t len) {
    need(len);
    pos_ += len;
  }

  /// Reads bytes up to (not including) the next NUL, consuming the NUL.
  /// TFTP uses this for filename/mode strings.
  std::string cstring() {
    std::size_t end = pos_;
    while (end < data_.size() && data_[end] != 0) ++end;
    if (end == data_.size()) throw BufferUnderflow("unterminated string");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), end - pos_);
    pos_ = end + 1;
    return out;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw BufferUnderflow("need " + std::to_string(n) + " bytes, have " +
                            std::to_string(remaining()));
    }
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

/// Sequential big-endian writer. Two modes:
///  - growable (default): appends to an owned ByteBuffer;
///  - fixed: writes through a caller-provided span and throws on overflow.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::span<std::uint8_t> fixed) : fixed_(fixed), is_fixed_(true) {}
  /// Growable, with room for `capacity` bytes reserved up front: a codec
  /// that knows its output size allocates once instead of growing.
  explicit BufWriter(std::size_t capacity) { grow_.reserve(capacity); }

  BufWriter& u8(std::uint8_t v) {
    put(&v, 1);
    return *this;
  }

  BufWriter& u16(std::uint16_t v) {
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                               static_cast<std::uint8_t>(v)};
    put(b, 2);
    return *this;
  }

  BufWriter& u32(std::uint32_t v) {
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    put(b, 4);
    return *this;
  }

  BufWriter& u64(std::uint64_t v) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      u8(static_cast<std::uint8_t>(v >> shift));
    }
    return *this;
  }

  BufWriter& bytes(ByteView v) {
    put(v.data(), v.size());
    return *this;
  }

  BufWriter& zeros(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) u8(0);
    return *this;
  }

  /// NUL-terminated string (TFTP style).
  BufWriter& cstring(std::string_view s) {
    put(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    return u8(0);
  }

  [[nodiscard]] std::size_t size() const { return is_fixed_ ? pos_ : grow_.size(); }

  /// The bytes written so far. A later write may invalidate the view.
  [[nodiscard]] ByteView view() const {
    return is_fixed_ ? ByteView(fixed_.first(pos_)) : ByteView(grow_);
  }

  /// Takes the accumulated bytes (growable mode only).
  [[nodiscard]] ByteBuffer take() {
    if (is_fixed_) throw std::logic_error("take() on fixed-capacity BufWriter");
    return std::move(grow_);
  }

 private:
  void put(const std::uint8_t* src, std::size_t n) {
    if (is_fixed_) {
      if (pos_ + n > fixed_.size()) {
        throw BufferOverflow("fixed buffer of " + std::to_string(fixed_.size()) +
                             " bytes overflowed at offset " + std::to_string(pos_));
      }
      std::memcpy(fixed_.data() + pos_, src, n);
      pos_ += n;
    } else {
      grow_.insert(grow_.end(), src, src + n);
    }
  }

  ByteBuffer grow_;
  std::span<std::uint8_t> fixed_;
  std::size_t pos_ = 0;
  bool is_fixed_ = false;
};

/// Builds a ByteBuffer from a string's bytes (handy in tests and TFTP).
[[nodiscard]] ByteBuffer to_bytes(std::string_view s);

/// Interprets a buffer's bytes as text.
[[nodiscard]] std::string to_string(ByteView b);

/// Constant-time-ish equality (used for digest comparison).
[[nodiscard]] bool equal_bytes(ByteView a, ByteView b);

}  // namespace ab::util
