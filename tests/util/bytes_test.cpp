#include "src/util/bytes.h"

#include <gtest/gtest.h>

namespace ab::util {
namespace {

TEST(BufWriter, WritesBigEndianIntegers) {
  BufWriter w;
  w.u8(0x01).u16(0x0203).u32(0x04050607).u64(0x08090A0B0C0D0E0Full);
  const ByteBuffer out = w.take();
  const ByteBuffer expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                               0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F};
  EXPECT_EQ(out, expected);
}

TEST(BufReader, ReadsBackWhatWriterWrote) {
  BufWriter w;
  w.u8(0xAB).u16(0xCDEF).u32(0xDEADBEEF).u64(0x0123456789ABCDEFull);
  const ByteBuffer buf = w.take();
  BufReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.empty());
}

TEST(BufReader, ThrowsOnUnderflow) {
  const ByteBuffer buf = {0x01, 0x02};
  BufReader r(buf);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_THROW(r.u8(), BufferUnderflow);
}

TEST(BufReader, ThrowsOnUnderflowAcrossWidths) {
  const ByteBuffer buf = {1, 2, 3};
  {
    BufReader r(buf);
    EXPECT_THROW(r.u32(), BufferUnderflow);
  }
  {
    BufReader r(buf);
    EXPECT_THROW(r.u64(), BufferUnderflow);
  }
  {
    BufReader r(buf);
    EXPECT_THROW(r.bytes(4), BufferUnderflow);
  }
  {
    BufReader r(buf);
    EXPECT_THROW(r.skip(4), BufferUnderflow);
  }
}

TEST(BufReader, UnderflowDoesNotConsume) {
  const ByteBuffer buf = {1, 2, 3};
  BufReader r(buf);
  EXPECT_THROW(r.u32(), BufferUnderflow);
  // The failed read must not have advanced the cursor.
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.u8(), 1);
}

TEST(BufReader, BytesAndViewAndRest) {
  const ByteBuffer buf = {10, 20, 30, 40, 50};
  BufReader r(buf);
  EXPECT_EQ(r.bytes(2), (ByteBuffer{10, 20}));
  const ByteView v = r.view(1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 30);
  const ByteView rest = r.rest();
  EXPECT_EQ(rest.size(), 2u);
  EXPECT_TRUE(r.empty());
}

TEST(BufReader, CstringParsesAndConsumesNul) {
  BufWriter w;
  w.cstring("octet").u8(0x42);
  const ByteBuffer buf = w.take();
  BufReader r(buf);
  EXPECT_EQ(r.cstring(), "octet");
  EXPECT_EQ(r.u8(), 0x42);
}

TEST(BufReader, CstringThrowsWhenUnterminated) {
  const ByteBuffer buf = {'a', 'b', 'c'};
  BufReader r(buf);
  EXPECT_THROW(r.cstring(), BufferUnderflow);
}

TEST(BufReader, FillCopiesExactSpan) {
  const ByteBuffer buf = {1, 2, 3, 4};
  BufReader r(buf);
  std::array<std::uint8_t, 3> dst{};
  r.fill(dst);
  EXPECT_EQ(dst, (std::array<std::uint8_t, 3>{1, 2, 3}));
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BufWriter, FixedModeWritesThroughSpan) {
  std::array<std::uint8_t, 4> storage{};
  BufWriter w{std::span<std::uint8_t>(storage)};
  w.u16(0xAABB).u16(0xCCDD);
  EXPECT_EQ(storage, (std::array<std::uint8_t, 4>{0xAA, 0xBB, 0xCC, 0xDD}));
}

TEST(BufWriter, FixedModeThrowsOnOverflow) {
  std::array<std::uint8_t, 3> storage{};
  BufWriter w{std::span<std::uint8_t>(storage)};
  w.u16(0x1122);
  EXPECT_THROW(w.u16(0x3344), BufferOverflow);
}

TEST(BufWriter, EmptyWriteIntoEmptyFixedWriterIsANoOp) {
  // Both spans are empty with null data(): the write must not reach
  // memcpy, which is undefined for a null pointer even at length zero
  // (the sanitizer build aborts on it).
  BufWriter w{std::span<std::uint8_t>()};
  w.bytes(ByteView());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.view().empty());
  EXPECT_THROW(w.u8(1), BufferOverflow);
}

TEST(BufWriter, TakeOnFixedWriterIsAnError) {
  std::array<std::uint8_t, 2> storage{};
  BufWriter w{std::span<std::uint8_t>(storage)};
  EXPECT_THROW((void)w.take(), std::logic_error);
}

TEST(BufWriter, ZerosAppendsZeroBytes) {
  BufWriter w;
  w.u8(1).zeros(3).u8(2);
  EXPECT_EQ(w.take(), (ByteBuffer{1, 0, 0, 0, 2}));
}

TEST(Bytes, StringRoundTrip) {
  const ByteBuffer b = to_bytes("hello");
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Bytes, EqualBytes) {
  const ByteBuffer a = {1, 2, 3};
  const ByteBuffer b = {1, 2, 3};
  const ByteBuffer c = {1, 2, 4};
  const ByteBuffer d = {1, 2};
  EXPECT_TRUE(equal_bytes(a, b));
  EXPECT_FALSE(equal_bytes(a, c));
  EXPECT_FALSE(equal_bytes(a, d));
}

}  // namespace
}  // namespace ab::util
