#include "wackamole/vip_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace wam::wackamole {
namespace {

gcs::DaemonId ip(int n) {
  return gcs::DaemonId(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n)));
}

gcs::MemberId member(int n) { return gcs::MemberId{ip(n), 1, "w"}; }

gcs::GroupView view_of(std::initializer_list<int> daemons) {
  gcs::GroupView v;
  v.daemon_view = gcs::ViewId{1, ip(1)};
  for (int d : daemons) v.members.push_back(member(d));
  return v;
}

TEST(VipTable, ClaimUnowned) {
  VipTable t;
  auto r = t.claim("g", member(1), view_of({1, 2}));
  EXPECT_TRUE(r.claimed);
  EXPECT_FALSE(r.dropped.has_value());
  EXPECT_EQ(*t.owner("g"), member(1));
}

TEST(VipTable, ReclaimByOwnerIsIdempotent) {
  VipTable t;
  auto v = view_of({1, 2});
  t.claim("g", member(1), v);
  auto r = t.claim("g", member(1), v);
  EXPECT_TRUE(r.claimed);
  EXPECT_FALSE(r.dropped.has_value());
}

TEST(VipTable, ConflictLaterMemberWins) {
  // The paper's rule: p releases vip if p appears in the membership list
  // BEFORE q. The later claimant keeps the address.
  VipTable t;
  auto v = view_of({1, 2});
  t.claim("g", member(1), v);
  auto r = t.claim("g", member(2), v);
  EXPECT_TRUE(r.claimed);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(*r.dropped, member(1));
  EXPECT_EQ(*t.owner("g"), member(2));
}

TEST(VipTable, ConflictEarlierClaimantLoses) {
  VipTable t;
  auto v = view_of({1, 2});
  t.claim("g", member(2), v);
  auto r = t.claim("g", member(1), v);
  EXPECT_FALSE(r.claimed);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(*r.dropped, member(1));
  EXPECT_EQ(*t.owner("g"), member(2));
}

TEST(VipTable, ConflictResolutionIsSymmetric) {
  // Whatever the arrival order of the two claims, the final owner is the
  // same — this is what makes the distributed procedure deterministic.
  auto v = view_of({1, 2});
  VipTable a;
  a.claim("g", member(1), v);
  a.claim("g", member(2), v);
  VipTable b;
  b.claim("g", member(2), v);
  b.claim("g", member(1), v);
  EXPECT_EQ(*a.owner("g"), *b.owner("g"));
}

TEST(VipTable, LoadAndOwnedBy) {
  VipTable t;
  auto v = view_of({1, 2});
  t.claim("a", member(1), v);
  t.claim("b", member(1), v);
  t.claim("c", member(2), v);
  EXPECT_EQ(t.load_of(member(1)), 2u);
  EXPECT_EQ(t.load_of(member(2)), 1u);
  EXPECT_EQ(t.owned_by(member(1)), (std::vector<std::string>{"a", "b"}));
}

TEST(VipTable, Uncovered) {
  VipTable t;
  t.claim("b", member(1), view_of({1}));
  auto holes = t.uncovered({"a", "b", "c"});
  EXPECT_EQ(holes, (std::vector<std::string>{"a", "c"}));
}

TEST(VipTable, SetAndClearOwner) {
  VipTable t;
  t.set_owner("g", member(3));
  EXPECT_EQ(*t.owner("g"), member(3));
  t.clear_owner("g");
  EXPECT_FALSE(t.owner("g").has_value());
}

TEST(VipTable, ClearEmptiesTable) {
  VipTable t;
  auto v = view_of({1, 2});
  t.set_owner("g", member(1));
  t.claim("dense-b", member(2), v);
  t.clear();
  EXPECT_TRUE(t.owners().empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.load_of(member(1)), 0u);
  // The cleared table is reusable: claims index and checksum afresh.
  t.claim("dense-b", member(1), v);
  EXPECT_EQ(*t.owner("dense-b"), member(1));
  EXPECT_EQ(t.owned_by(member(1)), (std::vector<std::string>{"dense-b"}));
  EXPECT_EQ(t.load_of(member(2)), 0u);
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_TRUE(t.verify_index());
}

TEST(VipTable, DescribeListsOwners) {
  VipTable t;
  t.set_owner("g", member(1));
  EXPECT_NE(t.describe().find("g->"), std::string::npos);
}

// ------------------------------------------------- dense representation ----

TEST(VipTableDense, CopyIsIndependentOfItsSource) {
  VipTable a;
  a.set_owner("dense-a", member(1));
  a.set_owner("dense-b", member(1));
  VipTable b = a;
  b.set_owner("dense-a", member(2));
  b.clear_owner("dense-b");
  b.set_owner("dense-c", member(3));
  EXPECT_EQ(*a.owner("dense-a"), member(1));
  EXPECT_EQ(*a.owner("dense-b"), member(1));
  EXPECT_FALSE(a.owner("dense-c").has_value());
  EXPECT_EQ(a.load_of(member(1)), 2u);
  EXPECT_EQ(a.load_of(member(2)), 0u);
  EXPECT_EQ(b.load_of(member(1)), 0u);
  EXPECT_EQ(b.load_of(member(2)), 1u);
  EXPECT_NE(a.checksum(), b.checksum());
  for (const auto* t : {&a, &b}) {
    EXPECT_TRUE(t->verify_checksum());
    EXPECT_TRUE(t->verify_index());
  }
}

// Ids interned after the table last grew land beyond its slot vector:
// set_owner and claim must grow it.
TEST(VipTableDense, IdsInternedAfterTheTableWasBuilt) {
  VipTable t;
  auto v = view_of({1, 2});
  t.set_owner("dense-early", member(1));
  const auto late = intern_group(
      "dense-late-" + std::to_string(group_interner().size()));
  const auto later = intern_group(
      "dense-later-" + std::to_string(group_interner().size()));
  EXPECT_FALSE(t.owner(later).has_value());
  t.set_owner(late, member(1));
  auto r = t.claim(later, member(2), v);
  EXPECT_TRUE(r.claimed);
  EXPECT_EQ(*t.owner(late), member(1));
  EXPECT_EQ(*t.owner(later), member(2));
  EXPECT_EQ(t.load_of(member(1)), 2u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_TRUE(t.verify_index());
}

TEST(VipTableDense, ForEachOwnerVisitsInAscendingIdOrder) {
  VipTable t;
  // Insert in descending id order; the walk must still ascend.
  std::vector<GroupId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(intern_group("dense-order-" + std::to_string(i)));
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    t.set_owner(*it, member(static_cast<int>(*it % 3) + 1));
  }
  std::vector<GroupId> seen;
  t.for_each_owner([&](GroupId id, const gcs::MemberId& owner) {
    seen.push_back(id);
    EXPECT_EQ(owner, *t.owner(id));
  });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(seen, ids);
}

// The informational name rides with each entry: a refresh through
// set_owner updates only that entry, and claim() never refreshes.
TEST(VipTableDense, InformationalNamesArePerEntry) {
  VipTable t;
  auto v = view_of({1});
  const gcs::MemberId renamed{ip(1), 1, "renamed"};
  t.set_owner("dense-n1", member(1));
  t.set_owner("dense-n2", member(1));
  t.set_owner("dense-n2", renamed);
  t.claim("dense-n1", renamed, v);
  EXPECT_EQ(t.owner("dense-n1")->name, "w");
  EXPECT_EQ(t.owner("dense-n2")->name, "renamed");
  EXPECT_EQ(t.load_of(member(1)), 2u);
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_TRUE(t.verify_index());
}

// corrupt-index has set semantics: unlinking an id that is already
// unlinked changes nothing while its owner still indexes other groups;
// once the owner indexes nothing, the backdoor plants a phantom instead.
TEST(VipTableDense, DoubleCorruptIndexOnTheSameId) {
  VipTable t;
  t.set_owner("dense-d1", member(1));
  t.set_owner("dense-d2", member(1));
  const auto d1 = intern_group("dense-d1");
  t.chaos_corrupt_index_entry(d1, member(9));
  EXPECT_EQ(t.load_of(member(1)), 1u);
  t.chaos_corrupt_index_entry(d1, member(9));
  EXPECT_EQ(t.load_of(member(1)), 1u);
  EXPECT_EQ(t.load_of(member(9)), 0u);
  EXPECT_FALSE(t.verify_index());
  t.rebuild();
  EXPECT_TRUE(t.verify_index());
  EXPECT_EQ(t.load_of(member(1)), 2u);

  VipTable single;
  single.set_owner("dense-d1", member(1));
  single.chaos_corrupt_index_entry(d1, member(9));
  single.chaos_corrupt_index_entry(d1, member(9));
  EXPECT_EQ(single.load_of(member(1)), 0u);
  EXPECT_EQ(single.load_of(member(9)), 1u);  // the phantom
  single.chaos_corrupt_index_entry(d1, member(9));  // already planted
  EXPECT_EQ(single.load_of(member(9)), 1u);
  single.rebuild();
  EXPECT_TRUE(single.verify_index());
  EXPECT_EQ(single.load_of(member(9)), 0u);
  EXPECT_EQ(single.load_of(member(1)), 1u);
}

}  // namespace
}  // namespace wam::wackamole
