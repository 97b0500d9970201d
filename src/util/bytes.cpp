#include "util/bytes.hpp"

#include "util/shared_bytes.hpp"

namespace wam::util {

ByteReader::ByteReader(const SharedBytes& buf)
    : buf_(buf.span()), backing_(&buf) {}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::boolean(bool v) { u8(v ? 1 : 0); }

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void ByteWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::vstr(std::string_view v) {
  varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::raw(std::span<const std::uint8_t> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw DecodeError("truncated buffer: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  auto v = static_cast<std::uint16_t>((buf_[pos_] << 8) | buf_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = (static_cast<std::uint32_t>(buf_[pos_]) << 24) |
                    (static_cast<std::uint32_t>(buf_[pos_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(buf_[pos_ + 2]) << 8) |
                    static_cast<std::uint32_t>(buf_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  auto hi = static_cast<std::uint64_t>(u32());
  auto lo = static_cast<std::uint64_t>(u32());
  return (hi << 32) | lo;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

bool ByteReader::boolean() { return u8() != 0; }

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    auto b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // The final byte of a 10-byte varint may only carry bit 0 (2^63).
      if (shift == 63 && b > 1) break;
      return v;
    }
  }
  throw DecodeError("overlong varint");
}

Bytes ByteReader::bytes() {
  auto n = u32();
  return raw(n);
}

std::string ByteReader::str() {
  auto n = u32();
  need(n);
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

std::string ByteReader::vstr() { return std::string(vstr_view()); }

std::string_view ByteReader::vstr_view() {
  auto n = varint();
  if (n > remaining()) {
    throw DecodeError("truncated buffer: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
  std::string_view s(reinterpret_cast<const char*>(buf_.data()) + pos_, n);
  pos_ += n;
  return s;
}

Bytes ByteReader::raw(std::size_t n) {
  need(n);
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

SharedBytes ByteReader::shared_bytes() {
  auto n = u32();
  return shared_raw(n);
}

SharedBytes ByteReader::shared_raw(std::size_t n) {
  need(n);
  SharedBytes out = backing_ != nullptr
                        ? backing_->slice(pos_, n)
                        : SharedBytes::copy_of(buf_.subspan(pos_, n));
  pos_ += n;
  return out;
}

void ByteReader::expect_end() const {
  if (!at_end()) {
    throw DecodeError("trailing garbage: " + std::to_string(remaining()) +
                      " bytes left");
  }
}

}  // namespace wam::util
