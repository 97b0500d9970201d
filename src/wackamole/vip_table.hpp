// The current_table of the Wackamole algorithm: which member covers which
// VIP group, plus the conflict-resolution rule of ResolveConflicts().
//
// Dense representation: GroupIds are the process-wide dense interned ids,
// so the owner map is a vector of slots indexed by id, sized to the
// largest id the table has seen. A slot names its owner by two small
// indexes — into the table's member list (identity: daemon ip, client id)
// and into its list of informational names — so the slot vector is
// trivially copyable and clear()/copy are linear memory operations. The
// member->owned-groups index is one GroupIdSet bitmap plus a count per
// member, maintained incrementally on every set_owner/clear_owner/claim:
// load_of() scans the few members and reads a count, owned_by() walks one
// bitmap. Everything that
// leaves the table in bulk (owners(), owned_by(), uncovered(), describe())
// is sorted by group NAME — GroupIds are process-local first-use ids and
// must never order deterministic output; for_each_owner() visits in
// ascending id order and its callers sort.
//
// The guard for the self-stabilization layer is an XOR checksum per block
// of 64 groups, in the name order of the daemon's GroupSet (set_layout),
// so an audit point can verify one block in O(64) instead of the whole
// table (see audit.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gcs/types.hpp"
#include "wackamole/group_ids.hpp"

namespace wam::wackamole {

/// Hash over the identity fields of MemberId (daemon ip, client id) — the
/// informational name is ignored, matching operator==.
struct MemberIdHash {
  std::size_t operator()(const gcs::MemberId& m) const {
    auto key = (static_cast<std::uint64_t>(m.daemon.value()) << 32) |
               static_cast<std::uint64_t>(m.client);
    return std::hash<std::uint64_t>()(key);
  }
};

class VipTable {
 public:
  /// Empties the table; the audit layout stays.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    members_.clear();
    names_.clear();
    size_ = 0;
    std::fill(block_sums_.begin(), block_sums_.end(), 0);
    outside_.clear();
    outside_sum_ = 0;
  }

  // ---- Name-keyed API (config-parse / test boundary) ----
  [[nodiscard]] std::optional<gcs::MemberId> owner(
      const std::string& group) const;
  void set_owner(const std::string& group, const gcs::MemberId& member);
  void clear_owner(const std::string& group);

  // ---- Id-keyed API (the protocol fast path) ----
  [[nodiscard]] std::optional<gcs::MemberId> owner(GroupId id) const;
  void set_owner(GroupId id, const gcs::MemberId& member);
  void clear_owner(GroupId id);
  /// fn(id, owner) for every entry, in ascending id order — sort by name
  /// (or GroupSet position) before producing deterministic output.
  template <class Fn>
  void for_each_owner(Fn&& fn) const {
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id].member != 0) {
        fn(static_cast<GroupId>(id), member_of(slots_[id]));
      }
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Number of groups owned by `member` — O(members).
  [[nodiscard]] std::size_t load_of(const gcs::MemberId& member) const;
  /// Groups owned by `member`, sorted by name — a bitmap walk plus a sort
  /// of its k names.
  [[nodiscard]] std::vector<std::string> owned_by(
      const gcs::MemberId& member) const;
  /// Groups in `all` with no owner, sorted.
  [[nodiscard]] std::vector<std::string> uncovered(
      const std::vector<std::string>& all) const;
  /// Name-sorted snapshot of the full table (materialized per call; hot
  /// paths should use for_each_owner() or the id lookups instead).
  [[nodiscard]] std::map<std::string, gcs::MemberId> owners() const;

  /// ResolveConflicts() for one claim: `claimant` reports covering `group`.
  /// If another member already claims it, the paper's deterministic rule
  /// applies — the claimant that appears EARLIER in the membership list
  /// releases the address (Lemma 1's proof: "p ... will release vip if p
  /// appears in the membership list of S' before q"). Returns which member,
  /// if any, lost its claim.
  struct ClaimResult {
    bool claimed = false;  // claimant holds the group after the call
    std::optional<gcs::MemberId> dropped;
  };
  ClaimResult claim(const std::string& group, const gcs::MemberId& claimant,
                    const gcs::GroupView& view);
  ClaimResult claim(GroupId id, const gcs::MemberId& claimant,
                    const gcs::GroupView& view);

  [[nodiscard]] std::string describe() const;

  // ---- Guarded-state hooks (self-stabilization layer) ----
  /// Entries per checksum block.
  static constexpr std::size_t kBlockSize = 64;
  /// Lay the checksum blocks out over `groups`: block b folds the entries
  /// of positions [64b, 64b + 64), and one more block, numbered blocks(),
  /// folds every entry outside the set. Positions are name order, so every
  /// process audits the same groups at the same audit point whatever its
  /// GroupIds. Call on an empty table; clear() and copies keep the layout,
  /// and `groups` must outlive them. Without a layout every entry is
  /// outside.
  void set_layout(const GroupSet& groups);
  /// Number of layout blocks (the outside block not counted).
  [[nodiscard]] std::size_t blocks() const { return block_sums_.size(); }
  /// XOR checksum over every (group, owner) entry, kept per block and
  /// updated on every write; any single corrupted entry flips it.
  [[nodiscard]] std::uint64_t checksum() const;
  /// Recompute the checksum from the owner slots and compare — O(V).
  [[nodiscard]] bool verify_checksum() const;
  /// Recompute the member->groups index from the owner slots and compare —
  /// O(V). Detects index drift that the checksum (slots-only) cannot see.
  [[nodiscard]] bool verify_index() const;
  /// The index holds exactly size() entries — O(members). With every
  /// entry indexed under its owner (verify_block), this makes the index
  /// agree with the slots.
  [[nodiscard]] bool index_count_agrees() const;
  /// Table members: every owner named since the last clear(), in first-use
  /// order. member_at(i) carries the identity fields only.
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] gcs::MemberId member_at(std::size_t i) const {
    return gcs::MemberId{members_[i].daemon, members_[i].client, {}};
  }
  /// Groups indexed under member i — O(1).
  [[nodiscard]] std::size_t indexed_by(std::size_t i) const {
    return members_[i].groups.size();
  }
  /// Verify block `b` alone (b == blocks(): the entries outside the
  /// layout): recompute its checksum and compare, and check that each of
  /// its entries is indexed under its owner and that owner_ok(owner's
  /// member index) holds. O(64) for a layout block.
  template <class OwnerOk>
  [[nodiscard]] bool verify_block(std::size_t b, OwnerOk&& owner_ok) const {
    std::uint64_t sum = 0;
    bool agree = true;
    auto check = [&](GroupId id) {
      if (id >= slots_.size() || slots_[id].member == 0) return;
      const Slot s = slots_[id];
      sum ^= entry_hash(id, s);
      agree &= members_[s.member - 1].groups.contains(id) &
               owner_ok(std::size_t{s.member} - 1);
    };
    if (b == blocks()) {
      outside_.for_each(check);
      return agree && sum == outside_sum_;
    }
    const std::size_t end = std::min(layout_->size(), (b + 1) * kBlockSize);
    const GroupId* ids = layout_->ids.data();
    for (std::size_t p = b * kBlockSize; p < end; ++p) check(ids[p]);
    return agree && sum == block_sums_[b];
  }
  /// Discard and rebuild the derived state (index + checksum) from the
  /// owner slots. The slots themselves are the recovery root here; entries
  /// that are wrong against the VIEW are the daemon's job to fence.
  void rebuild();

  /// Chaos backdoors: corrupt state without maintaining the invariants —
  /// exactly what a stray write would do. Test/injection use only.
  /// Overwrites the owner entry, bypassing index and checksum updates.
  void chaos_set_owner_unchecked(GroupId id, const gcs::MemberId& member);
  /// Desync the member index only: drop the indexed entry for `id` when
  /// present, otherwise insert a phantom entry under `bogus`.
  void chaos_corrupt_index_entry(GroupId id, const gcs::MemberId& bogus);

 private:
  /// One owner entry; member == 0 marks an empty slot.
  struct Slot {
    std::uint32_t member = 0;  // 1 + index into members_
    std::uint32_t name = 0;    // index into names_
  };
  /// One owner identity and the groups indexed under it.
  struct Member {
    gcs::DaemonId daemon;
    std::uint32_t client = 0;
    GroupIdSet groups;
  };

  [[nodiscard]] gcs::MemberId member_of(Slot s) const {
    const auto& m = members_[s.member - 1];
    return gcs::MemberId{m.daemon, m.client, names_[s.name]};
  }
  /// Index of `member`'s identity in members_, or members_.size().
  [[nodiscard]] std::uint32_t find_member(const gcs::MemberId& member) const;
  /// The slot naming `member`, adding its identity and name on first use.
  Slot intern_owner(const gcs::MemberId& member);
  Slot& slot(GroupId id);
  void link(GroupId id, Slot s) { members_[s.member - 1].groups.insert(id); }
  void unlink(GroupId id, Slot s) { members_[s.member - 1].groups.erase(id); }
  /// id's layout block, or blocks() for an id outside the layout.
  [[nodiscard]] std::size_t block_of(GroupId id) const;
  /// Add the entry (id, s) to, or remove it from, the size, its block's
  /// checksum and the index.
  void enter(GroupId id, Slot s);
  void leave(GroupId id, Slot s);
  /// The checksum term of one entry: identity fields only (daemon ip,
  /// client id) — matches operator== and MemberIdHash; the informational
  /// name must not perturb the checksum. Inline: the audit of a block
  /// hashes every entry in it.
  [[nodiscard]] std::uint64_t entry_hash(GroupId id, Slot s) const {
    const auto& m = members_[s.member - 1];
    std::uint64_t h = (static_cast<std::uint64_t>(m.daemon.value()) << 32) |
                      static_cast<std::uint64_t>(m.client);
    h ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(id) + 1);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  std::vector<Slot> slots_;  // indexed by GroupId
  std::vector<Member> members_;
  std::vector<std::string> names_;
  std::size_t size_ = 0;
  const GroupSet* layout_ = nullptr;
  std::vector<std::uint64_t> block_sums_;  // one per layout block
  GroupIdSet outside_;                     // entries outside the layout
  std::uint64_t outside_sum_ = 0;
};

}  // namespace wam::wackamole
