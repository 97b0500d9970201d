// Endian-safe byte-buffer serialization.
//
// All multi-byte integers are written big-endian (network order), matching
// what the real Wackamole/Spread wire formats do and making the simulated
// frames independent of host endianness. ByteWriter appends to an internal
// vector; ByteReader consumes a non-owning span and throws DecodeError on
// truncated input, so malformed frames surface as exceptions rather than UB.
// SpanWriter is ByteWriter's fixed-size twin: it fills a buffer whose exact
// size the encoder computed up front (SharedBytes::build).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace wam::util {

using Bytes = std::vector<std::uint8_t>;
/// Borrowed read-only view; Bytes and SharedBytes both convert to it, so
/// decoders taking ByteView accept either without copying.
using ByteView = std::span<const std::uint8_t>;

class SharedBytes;  // util/shared_bytes.hpp

/// Thrown by ByteReader when the input is shorter than the decode requires.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Bytes an unsigned LEB128 varint of `v` occupies (1..10).
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Append-only big-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Pre-size the buffer: encoders that can compute their exact body size
  /// up front avoid every intermediate reallocation.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void reserve(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void boolean(bool v);
  /// Unsigned LEB128 varint: 7 value bits per byte, high bit = "more".
  void varint(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::uint8_t> v);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view v);
  /// Length-prefixed (varint) UTF-8 string — the compact-wire form.
  void vstr(std::string_view v);
  /// Raw bytes, no length prefix (for fixed-size fields such as MACs).
  void raw(std::span<const std::uint8_t> v);

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Big-endian encoder into a caller-owned buffer of fixed size. Writing
/// past the end throws ContractViolation instead of overrunning it.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) { *take(1) = v; }
  void u16(std::uint16_t v) {
    auto* p = take(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    auto* p = take(4);
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  }
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> v) {
    if (!v.empty()) std::memcpy(take(v.size()), v.data(), v.size());
  }

  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const { return pos_; }

 private:
  std::uint8_t* take(std::size_t n) {
    WAM_ASSERT(n <= out_.size() - pos_);
    std::uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Consuming big-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_(buf) {}
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}
  /// Reader over refcounted storage: shared_bytes()/shared_raw() become
  /// zero-copy slices. `buf` must outlive the reader.
  explicit ByteReader(const SharedBytes& buf);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] bool boolean();
  /// Unsigned LEB128 varint; throws DecodeError past 10 bytes (overlong).
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] Bytes bytes();
  [[nodiscard]] std::string str();
  /// Length-prefixed (varint) UTF-8 string — the compact-wire form.
  [[nodiscard]] std::string vstr();
  /// vstr() without the copy: a view into the reader's buffer, valid as
  /// long as that buffer is.
  [[nodiscard]] std::string_view vstr_view();
  /// Read exactly n raw bytes (no length prefix).
  [[nodiscard]] Bytes raw(std::size_t n);
  /// Length-prefixed (u32) byte string as a SharedBytes: a zero-copy
  /// slice when the reader is backed by shared storage, a fresh copy
  /// otherwise.
  [[nodiscard]] SharedBytes shared_bytes();
  /// Exactly n raw bytes as a SharedBytes (zero-copy when backed).
  [[nodiscard]] SharedBytes shared_raw(std::size_t n);
  /// Step over n bytes without reading them.
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  /// Throws DecodeError unless the whole buffer has been consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
  const SharedBytes* backing_ = nullptr;  // set by the SharedBytes ctor
};

}  // namespace wam::util
