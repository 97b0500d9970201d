#include "wackamole/vip_table.hpp"

#include "util/assert.hpp"

namespace wam::wackamole {

std::uint32_t VipTable::find_member(const gcs::MemberId& member) const {
  std::uint32_t i = 0;
  while (i < members_.size() && !(members_[i].daemon == member.daemon &&
                                  members_[i].client == member.client)) {
    ++i;
  }
  return i;
}

VipTable::Slot VipTable::intern_owner(const gcs::MemberId& member) {
  Slot s;
  s.member = find_member(member) + 1;
  if (s.member > members_.size()) {
    members_.push_back(Member{member.daemon, member.client, {}});
  }
  while (s.name < names_.size() && names_[s.name] != member.name) ++s.name;
  if (s.name == names_.size()) names_.push_back(member.name);
  return s;
}

VipTable::Slot& VipTable::slot(GroupId id) {
  if (id >= slots_.size()) slots_.resize(static_cast<std::size_t>(id) + 1);
  return slots_[id];
}

std::optional<gcs::MemberId> VipTable::owner(const std::string& group) const {
  auto id = find_group_id(group);
  if (!id) return std::nullopt;  // never interned => never owned anywhere
  return owner(*id);
}

std::optional<gcs::MemberId> VipTable::owner(GroupId id) const {
  if (id >= slots_.size() || slots_[id].member == 0) return std::nullopt;
  return member_of(slots_[id]);
}

void VipTable::set_owner(const std::string& group,
                         const gcs::MemberId& member) {
  set_owner(intern_group(group), member);
}

void VipTable::set_owner(GroupId id, const gcs::MemberId& member) {
  const Slot next = intern_owner(member);
  Slot& s = slot(id);
  if (s.member == next.member) {
    s.name = next.name;  // refresh the informational name
    return;
  }
  if (s.member != 0) leave(id, s);
  s = next;
  enter(id, s);
}

void VipTable::clear_owner(const std::string& group) {
  auto id = find_group_id(group);
  if (id) clear_owner(*id);
}

void VipTable::clear_owner(GroupId id) {
  if (id >= slots_.size() || slots_[id].member == 0) return;
  Slot& s = slots_[id];
  leave(id, s);
  s = Slot{};
}

void VipTable::set_layout(const GroupSet& groups) {
  WAM_EXPECTS(size_ == 0);
  // One position per group: a block holds each of its groups once.
  for (std::uint32_t p = 0; p < groups.size(); ++p) {
    WAM_EXPECTS(groups.canonical[p] == p);
  }
  layout_ = &groups;
  block_sums_.assign((groups.size() + kBlockSize - 1) / kBlockSize, 0);
}

std::uint64_t VipTable::checksum() const {
  std::uint64_t sum = outside_sum_;
  for (auto b : block_sums_) sum ^= b;
  return sum;
}

std::size_t VipTable::block_of(GroupId id) const {
  const auto pos = layout_ == nullptr ? std::nullopt : layout_->position_of(id);
  return pos ? *pos / kBlockSize : blocks();
}

void VipTable::enter(GroupId id, Slot s) {
  const auto b = block_of(id);
  if (b == blocks()) {
    outside_sum_ ^= entry_hash(id, s);
    outside_.insert(id);
  } else {
    block_sums_[b] ^= entry_hash(id, s);
  }
  link(id, s);
  ++size_;
}

void VipTable::leave(GroupId id, Slot s) {
  const auto b = block_of(id);
  if (b == blocks()) {
    outside_sum_ ^= entry_hash(id, s);
    outside_.erase(id);
  } else {
    block_sums_[b] ^= entry_hash(id, s);
  }
  unlink(id, s);
  --size_;
}

std::size_t VipTable::load_of(const gcs::MemberId& member) const {
  auto i = find_member(member);
  return i == members_.size() ? 0 : members_[i].groups.size();
}

std::vector<std::string> VipTable::owned_by(const gcs::MemberId& member) const {
  std::vector<std::string> out;
  auto i = find_member(member);
  if (i == members_.size()) return out;
  out.reserve(members_[i].groups.size());
  members_[i].groups.for_each(
      [&](GroupId id) { out.push_back(group_name(id)); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> VipTable::uncovered(
    const std::vector<std::string>& all) const {
  std::vector<std::string> out;
  for (const auto& name : all) {
    auto id = find_group_id(name);
    if (!id || !owner(*id)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, gcs::MemberId> VipTable::owners() const {
  std::map<std::string, gcs::MemberId> out;
  for_each_owner([&](GroupId id, gcs::MemberId member) {
    out.emplace(group_name(id), std::move(member));
  });
  return out;
}

VipTable::ClaimResult VipTable::claim(const std::string& group,
                                      const gcs::MemberId& claimant,
                                      const gcs::GroupView& view) {
  return claim(intern_group(group), claimant, view);
}

VipTable::ClaimResult VipTable::claim(GroupId id, const gcs::MemberId& claimant,
                                      const gcs::GroupView& view) {
  const Slot next = intern_owner(claimant);
  Slot& s = slot(id);
  if (s.member == 0) {
    s = next;
    enter(id, s);
    return {true, std::nullopt};
  }
  if (s.member == next.member) return {true, std::nullopt};

  // Conflict: the member later in the uniquely ordered list keeps the group.
  auto existing = member_of(s);
  if (view.rank_of(claimant) > view.rank_of(existing)) {
    leave(id, s);
    s = next;
    enter(id, s);
    return {true, std::move(existing)};
  }
  return {false, claimant};
}

bool VipTable::verify_checksum() const {
  std::uint64_t expect = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].member != 0) {
      expect ^= entry_hash(static_cast<GroupId>(id), slots_[id]);
    }
  }
  return expect == checksum();
}

bool VipTable::index_count_agrees() const {
  std::size_t indexed = 0;
  for (const auto& m : members_) indexed += m.groups.size();
  return indexed == size_;
}

bool VipTable::verify_index() const {
  std::size_t indexed = 0;
  bool agree = true;
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    indexed += members_[i].groups.size();
    members_[i].groups.for_each([&](GroupId id) {
      if (id >= slots_.size() || slots_[id].member != i + 1) agree = false;
    });
  }
  return agree && indexed == size_;
}

void VipTable::rebuild() {
  for (auto& m : members_) m.groups.clear();
  size_ = 0;
  std::fill(block_sums_.begin(), block_sums_.end(), 0);
  outside_.clear();
  outside_sum_ = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].member != 0) enter(static_cast<GroupId>(id), slots_[id]);
  }
}

void VipTable::chaos_set_owner_unchecked(GroupId id,
                                         const gcs::MemberId& member) {
  // Deliberately skips unlink/link and the checksum.
  const Slot next = intern_owner(member);
  Slot& s = slot(id);
  if (s.member == 0) ++size_;
  s = next;
}

void VipTable::chaos_corrupt_index_entry(GroupId id,
                                         const gcs::MemberId& bogus) {
  if (id < slots_.size() && slots_[id].member != 0 &&
      !members_[slots_[id].member - 1].groups.empty()) {
    unlink(id, slots_[id]);  // indexed entry vanishes; the slot keeps it
  } else {
    link(id, intern_owner(bogus));  // phantom entry no slot ever had
  }
}

std::string VipTable::describe() const {
  // Single pass over a name-sorted snapshot with the exact capacity
  // reserved up front — no quadratic append-to-growing-temporary churn.
  std::vector<std::pair<const std::string*, std::string>> entries;
  entries.reserve(size_);
  for_each_owner([&](GroupId id, const gcs::MemberId& member) {
    entries.emplace_back(&group_name(id), member.to_string());
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::size_t total = 2;  // braces
  for (const auto& [name, owner] : entries) {
    total += name->size() + 2 + owner.size() + 2;  // "->" and ", "
  }
  std::string out;
  out.reserve(total);
  out += '{';
  bool first = true;
  for (const auto& [name, owner] : entries) {
    if (!first) out += ", ";
    first = false;
    out += *name;
    out += "->";
    out += owner;
  }
  out += '}';
  return out;
}

}  // namespace wam::wackamole
