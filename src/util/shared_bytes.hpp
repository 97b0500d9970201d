// Refcounted copy-on-write byte buffer for frame payloads.
//
// A SharedBytes is an immutable view onto refcounted storage: copying one
// bumps a reference count instead of deep-copying the bytes, and slice()
// carves out a zero-copy sub-view sharing the same storage. This is what
// lets a broadcast to N NICs hand every receiver the *same* payload
// buffer, and lets the IPv4/UDP decoders return their nested payloads as
// views into the frame instead of fresh vectors.
//
// The storage is either a wrapped util::Bytes (moved in, never copied) or
// one block from build(): the refcount and exactly n bytes in a single
// allocation, which is how the send path builds every frame.
//
// Aliasing rule (the "write" half of copy-on-write): the viewed bytes are
// immutable for the lifetime of every view. A writer that wants to modify
// a payload must detach first — `to_bytes()` produces a private deep copy
// to mutate, which is then re-wrapped (cheaply, by move) on assignment.
// There is deliberately no implicit conversion back to util::Bytes: every
// deep copy is a visible to_bytes() call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace wam::util {

class SharedBytes {
 public:
  SharedBytes() = default;

  /// Wrap a buffer, taking ownership (move in to avoid the copy).
  SharedBytes(Bytes b) {  // NOLINT(google-explicit-constructor)
    auto owner = std::make_shared<const Bytes>(std::move(b));
    data_ = owner->data();
    size_ = owner->size();
    storage_ = std::move(owner);
  }

  SharedBytes(std::initializer_list<std::uint8_t> init)
      : SharedBytes(copy_of({init.begin(), init.size()})) {}

  /// One allocation holding the refcount and exactly `n` bytes, written by
  /// `fill(SpanWriter&)`. Throws ContractViolation unless `fill` writes
  /// exactly `n` bytes (writing past the end throws before it overruns).
  template <class Fill>
  static SharedBytes build(std::size_t n, Fill&& fill) {
    auto block = std::make_shared_for_overwrite<std::uint8_t[]>(n);
    SpanWriter w({block.get(), n});
    std::forward<Fill>(fill)(w);
    WAM_ENSURES(w.size() == n);
    SharedBytes out;
    out.data_ = block.get();
    out.size_ = n;
    out.storage_ = std::move(block);
    return out;
  }

  /// Deep-copy a borrowed span into fresh shared storage.
  static SharedBytes copy_of(std::span<const std::uint8_t> v) {
    return build(v.size(), [v](SpanWriter& w) { w.raw(v); });
  }

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }

  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data_, size_};
  }
  operator std::span<const std::uint8_t>() const {  // NOLINT
    return span();
  }

  /// Zero-copy sub-view of [offset, offset+len) sharing this storage.
  /// Throws std::out_of_range when the window does not fit.
  [[nodiscard]] SharedBytes slice(std::size_t offset, std::size_t len) const {
    if (offset > size_ || len > size_ - offset) {
      throw std::out_of_range("SharedBytes::slice(" + std::to_string(offset) +
                              ", " + std::to_string(len) + ") of " +
                              std::to_string(size_) + " bytes");
    }
    SharedBytes out;
    out.storage_ = storage_;
    out.data_ = data_ + offset;
    out.size_ = len;
    return out;
  }

  /// Detach: materialize a private, mutable deep copy of the contents.
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// True when both views alias the same underlying storage (tests use
  /// this to pin the no-deep-copy guarantee).
  [[nodiscard]] bool shares_storage_with(const SharedBytes& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }
  [[nodiscard]] long use_count() const { return storage_.use_count(); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SharedBytes& a, const SharedBytes& b) {
    return !(a == b);
  }
  // Mixed comparisons: exact-match overloads so SharedBytes==Bytes never
  // has to choose between the two implicit conversion directions.
  friend bool operator==(const SharedBytes& a, const Bytes& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Bytes& a, const SharedBytes& b) {
    return b == a;
  }
  friend bool operator!=(const SharedBytes& a, const Bytes& b) {
    return !(a == b);
  }
  friend bool operator!=(const Bytes& a, const SharedBytes& b) {
    return !(b == a);
  }

 private:
  std::shared_ptr<const void> storage_;  // a Bytes or a build() block
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace wam::util
