#include "util/shared_bytes.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "util/bytes.hpp"

namespace wam::util {
namespace {

TEST(SharedBytes, DefaultIsEmpty) {
  SharedBytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
}

TEST(SharedBytes, WrapsBytesWithoutCopyOnMove) {
  Bytes raw{1, 2, 3, 4};
  const std::uint8_t* data = raw.data();
  SharedBytes b(std::move(raw));
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data(), data);  // moved, not copied
  EXPECT_EQ(b[2], 3);
}

TEST(SharedBytes, SliceSharesStorage) {
  SharedBytes whole{10, 20, 30, 40, 50};
  auto mid = whole.slice(1, 3);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0], 20);
  EXPECT_EQ(mid[2], 40);
  EXPECT_TRUE(mid.shares_storage_with(whole));
  EXPECT_EQ(mid.data(), whole.data() + 1);
}

TEST(SharedBytes, SliceOutOfRangeThrows) {
  SharedBytes b{1, 2, 3};
  EXPECT_NO_THROW(b.slice(3, 0));
  EXPECT_THROW(b.slice(2, 2), std::out_of_range);
  EXPECT_THROW(b.slice(4, 0), std::out_of_range);
}

TEST(SharedBytes, CopyIsRefcountedNotDeep) {
  SharedBytes a{1, 2, 3};
  SharedBytes b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.data(), b.data());
  EXPECT_GE(a.use_count(), 2);
}

TEST(SharedBytes, ToBytesDetaches) {
  SharedBytes a{1, 2, 3};
  Bytes copy = a.to_bytes();
  EXPECT_NE(copy.data(), a.data());
  EXPECT_EQ(copy, (Bytes{1, 2, 3}));
}

TEST(SharedBytes, NoImplicitConversionToBytes) {
  // A deep copy must be spelled to_bytes(): a handler taking
  // `const Bytes&` would otherwise copy the payload on every call.
  static_assert(!std::is_convertible_v<SharedBytes, Bytes>);
  static_assert(std::is_convertible_v<Bytes, SharedBytes>);
  SharedBytes a{7, 8};
  EXPECT_EQ(a.to_bytes(), (Bytes{7, 8}));
}

TEST(SharedBytes, EqualityMixesWithBytes) {
  SharedBytes a{1, 2, 3};
  Bytes b{1, 2, 3};
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  EXPECT_TRUE(a == SharedBytes(b));
  EXPECT_FALSE(a != b);
  EXPECT_FALSE(a == (Bytes{1, 2}));
}

TEST(SharedBytes, ReaderSlicesShareTheBackingBuffer) {
  ByteWriter w;
  w.u16(0xbeef);
  w.bytes(Bytes{9, 9, 9, 9});
  SharedBytes wire(w.take());
  ByteReader r(wire);
  EXPECT_EQ(r.u16(), 0xbeef);
  auto payload = r.shared_bytes();
  EXPECT_EQ(payload.size(), 4u);
  EXPECT_TRUE(payload.shares_storage_with(wire));
}

TEST(SharedBytes, ReaderWithoutBackingCopies) {
  Bytes raw{0, 0, 0, 2, 5, 6};  // u32 length prefix, then payload
  ByteReader r(raw);
  auto payload = r.shared_bytes();
  EXPECT_EQ(payload, (Bytes{5, 6}));  // correct, just not zero-copy
}

}  // namespace
}  // namespace wam::util
