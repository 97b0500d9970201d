// Process-wide VIP-group-name interning, and GroupSet: one configured
// VIP set in name order over the interned ids.
//
// The protocol layer identifies VIP groups by dense u32 GroupIds instead of
// strings. Because ids are dense (0, 1, 2, ... in first-intern order),
// every per-VIP structure is a plain array indexed by id: VipTable's owner
// slots, GroupSet's id -> position map, and the GroupIdSet bitmaps behind
// VipTable's member index and IpManager's held set. The allocation
// procedures run on dense positions, and the compact wire codecs decode
// names straight into ids. String names survive only at the boundaries —
// config parsing, log lines, obs events, NOTIFY, describe output and the
// per-message name tables of the wire format (ids are process-local and
// never leave the process).
//
// Ids are assigned in first-intern order, so they are NOT stable across
// runs or processes: every deterministic decision (allocation order, wire
// bytes, sorted output) orders by name, never by id. chaos::ParallelRunner
// shares this table across simulation worker threads; util::Interner is
// thread-safe and the id<->name mapping is append-only.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.hpp"

namespace wam::wackamole {

using GroupId = std::uint32_t;

/// The process-wide table. Exposed for size diagnostics and tests.
util::Interner& group_interner();

/// Id of `name`, interning it on first sight. Looks in a per-thread
/// name -> id cache first, so a name this thread has seen before costs a
/// hash lookup and no lock; only a miss goes to the shared interner.
GroupId intern_group(std::string_view name);

/// Id of `name` if some config/message has interned it already. A miss
/// means no VipTable can possibly have an entry for it.
inline std::optional<GroupId> find_group_id(std::string_view name) {
  return group_interner().find(name);
}

/// The name behind `id` (stable reference, O(1)).
inline const std::string& group_name(GroupId id) {
  return group_interner().name_of(id);
}

/// A set of GroupIds as a bitmap over the dense id space plus its size:
/// O(1) insert/erase/contains, copy and clear are linear memory ops, and
/// iteration is in ascending id order. The bitmap grows to the largest id
/// inserted.
class GroupIdSet {
 public:
  [[nodiscard]] bool contains(GroupId id) const {
    const auto w = id / 64;
    return w < words_.size() && ((words_[w] >> (id % 64)) & 1u) != 0;
  }
  /// No-op if `id` is present.
  void insert(GroupId id) {
    const auto w = id / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const auto bit = std::uint64_t{1} << (id % 64);
    if ((words_[w] & bit) != 0) return;
    words_[w] |= bit;
    ++size_;
  }
  /// No-op if `id` is absent.
  void erase(GroupId id) {
    if (!contains(id)) return;
    words_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
    --size_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Empties the set, keeping the bitmap's capacity.
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    size_ = 0;
  }
  /// fn(id) for every member, ascending.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (auto bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<GroupId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// The complete VIP set in dense, name-sorted positional form. Built once
/// per configuration (the VIP list only changes on reconfig) and shared by
/// every allocation round. Positions — not GroupIds — are the working
/// currency of the fast path: position order IS name order, so iterating
/// positions yields the same deterministic sequence the reference
/// implementations got from sorting strings.
struct GroupSet {
  explicit GroupSet(const std::vector<std::string>& group_names);

  std::vector<std::string> names;  ///< name-sorted (duplicates preserved)
  std::vector<GroupId> ids;        ///< ids[pos] interned from names[pos]
  /// canonical[pos] is the first position carrying the same name; equal to
  /// pos whenever names are unique. Preference/quarantine position sets
  /// store canonical positions only.
  std::vector<std::uint32_t> canonical;

  [[nodiscard]] std::size_t size() const { return names.size(); }
  /// Position of an interned group id, or nullopt if not in this set. O(1):
  /// one load from a vector indexed by id.
  [[nodiscard]] std::optional<std::uint32_t> position_of(GroupId id) const {
    if (id >= pos_.size() || pos_[id] == kAbsent) return std::nullopt;
    return pos_[id];
  }
  /// Position of `name` (binary search; the canonical, first occurrence),
  /// or nullopt if not in this set.
  [[nodiscard]] std::optional<std::uint32_t> position_of_name(
      std::string_view name) const;

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;
  /// pos_[id] = canonical position of `id`, kAbsent if not in the set;
  /// sized to the largest id in the set.
  std::vector<std::uint32_t> pos_;
};

}  // namespace wam::wackamole
