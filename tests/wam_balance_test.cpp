#include "wackamole/balance.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace wam::wackamole {
namespace {

gcs::MemberId member(int n) {
  return gcs::MemberId{
      gcs::DaemonId(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n))),
      1, "w"};
}

MemberInfo info(int n, bool mature = true,
                std::set<std::string> preferred = {}) {
  return MemberInfo{member(n), mature, 1, std::move(preferred), {}};
}

std::vector<std::string> groups(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back("g" + std::to_string(i / 10) + std::to_string(i % 10));
  }
  return out;
}

TEST(GroupSet, PositionOfKnownUnknownAndOutOfRangeIds) {
  GroupSet set({"gs-b", "gs-a", "gs-c"});
  ASSERT_EQ(set.names, (std::vector<std::string>{"gs-a", "gs-b", "gs-c"}));
  for (std::uint32_t p = 0; p < set.size(); ++p) {
    EXPECT_EQ(set.position_of(set.ids[p]), p);
  }
  // Interned, but not in the set.
  const auto outsider = intern_group("gs-outsider");
  EXPECT_FALSE(set.position_of(outsider).has_value());
  // Interned after the set was built: beyond its id table.
  const auto late =
      intern_group("gs-late-" + std::to_string(group_interner().size()));
  EXPECT_FALSE(set.position_of(late).has_value());
  EXPECT_FALSE(set.position_of(UINT32_MAX - 1).has_value());
  EXPECT_EQ(set.position_of_name("gs-b"), 1u);
  EXPECT_FALSE(set.position_of_name("gs-outsider").has_value());
  EXPECT_FALSE(set.position_of_name("gs-d").has_value());  // past the end
}

TEST(GroupSet, FirstOccurrenceIsTheCanonicalPosition) {
  GroupSet set({"gs-dup", "gs-a", "gs-dup"});
  ASSERT_EQ(set.names,
            (std::vector<std::string>{"gs-a", "gs-dup", "gs-dup"}));
  EXPECT_EQ(set.position_of(intern_group("gs-dup")), 1u);
  EXPECT_EQ(set.position_of_name("gs-dup"), 1u);
  EXPECT_EQ(set.canonical, (std::vector<std::uint32_t>{0, 1, 1}));
}

TEST(Reallocate, CoversAllHolesExactlyOnce) {
  VipTable table;
  auto all = groups(10);
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3)};
  auto assignments = reallocate_ips(all, table, members);
  EXPECT_EQ(assignments.size(), 10u);
  for (const auto& g : all) EXPECT_TRUE(assignments.count(g));
}

TEST(Reallocate, SpreadsLoadEvenly) {
  VipTable table;
  auto all = groups(9);
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3)};
  auto assignments = reallocate_ips(all, table, members);
  std::map<gcs::MemberId, int> load;
  for (const auto& [g, m] : assignments) ++load[m];
  for (const auto& [m, n] : load) EXPECT_EQ(n, 3);
}

TEST(Reallocate, RespectsExistingLoad) {
  VipTable table;
  auto all = groups(6);
  // Member 1 already holds 4 groups; the 2 holes should go to member 2.
  for (int i = 0; i < 4; ++i) table.set_owner(all[static_cast<std::size_t>(i)], member(1));
  auto members = std::vector<MemberInfo>{info(1), info(2)};
  auto assignments = reallocate_ips(all, table, members);
  ASSERT_EQ(assignments.size(), 2u);
  for (const auto& [g, m] : assignments) EXPECT_EQ(m, member(2));
}

TEST(Reallocate, SkipsImmatureMembers) {
  VipTable table;
  auto all = groups(4);
  auto members = std::vector<MemberInfo>{info(1, false), info(2, true)};
  auto assignments = reallocate_ips(all, table, members);
  for (const auto& [g, m] : assignments) EXPECT_EQ(m, member(2));
}

TEST(Reallocate, AllImmatureAssignsNothing) {
  VipTable table;
  auto all = groups(4);
  auto members = std::vector<MemberInfo>{info(1, false), info(2, false)};
  EXPECT_TRUE(reallocate_ips(all, table, members).empty());
}

TEST(Reallocate, HonorsPreferences) {
  VipTable table;
  auto all = groups(2);
  auto members =
      std::vector<MemberInfo>{info(1), info(2, true, {all[0], all[1]})};
  auto assignments = reallocate_ips(all, table, members);
  // Member 2 prefers both; it gets both despite higher load... no: load
  // balancing still applies within preference ties. First group goes to 2
  // (preference beats load), second: member 2 has load 1 but still prefers;
  // preference outranks load in the scoring, so both land on member 2.
  EXPECT_EQ(assignments[all[0]], member(2));
  EXPECT_EQ(assignments[all[1]], member(2));
}

TEST(Reallocate, DeterministicTieBreakByRank) {
  VipTable table;
  auto all = groups(1);
  auto members = std::vector<MemberInfo>{info(1), info(2)};
  auto a1 = reallocate_ips(all, table, members);
  auto a2 = reallocate_ips(all, table, members);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1[all[0]], member(1));  // earlier in the membership list
}

TEST(Balance, ProducesCompleteAllocation) {
  VipTable table;
  auto all = groups(10);
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3)};
  for (const auto& g : all) table.set_owner(g, member(1));  // all on one
  auto allocation = balance_ips(all, table, members);
  EXPECT_EQ(allocation.size(), all.size());
}

TEST(Balance, LoadsWithinOne) {
  VipTable table;
  auto all = groups(10);
  for (const auto& g : all) table.set_owner(g, member(1));
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3)};
  auto allocation = balance_ips(all, table, members);
  std::map<gcs::MemberId, std::size_t> load;
  for (const auto& [g, m] : allocation) ++load[m];
  std::size_t lo = SIZE_MAX, hi = 0;
  for (const auto& [m, n] : load) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Balance, MinimizesMovement) {
  // Already balanced: nothing moves.
  VipTable table;
  auto all = groups(6);
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3)};
  for (int i = 0; i < 6; ++i) {
    table.set_owner(all[static_cast<std::size_t>(i)], member(1 + i % 3));
  }
  auto allocation = balance_ips(all, table, members);
  for (const auto& g : all) {
    EXPECT_EQ(allocation[g], *table.owner(g)) << g << " moved unnecessarily";
  }
}

TEST(Balance, PreferredGroupsStayWithPreferrer) {
  VipTable table;
  auto all = groups(4);
  // Member 1 holds everything but prefers only g00; rebalance to 2 members
  // must keep g00 on member 1.
  for (const auto& g : all) table.set_owner(g, member(1));
  auto members =
      std::vector<MemberInfo>{info(1, true, {all[0]}), info(2)};
  auto allocation = balance_ips(all, table, members);
  EXPECT_EQ(allocation[all[0]], member(1));
}

TEST(Balance, ExcludesImmatureMembers) {
  VipTable table;
  auto all = groups(4);
  for (const auto& g : all) table.set_owner(g, member(1));
  auto members = std::vector<MemberInfo>{info(1), info(2, false)};
  auto allocation = balance_ips(all, table, members);
  for (const auto& g : all) EXPECT_EQ(allocation[g], member(1));
}

TEST(Balance, ReassignsGroupsOwnedByDepartedMembers) {
  VipTable table;
  auto all = groups(4);
  table.set_owner(all[0], member(9));  // not in the member list
  auto members = std::vector<MemberInfo>{info(1), info(2)};
  auto allocation = balance_ips(all, table, members);
  EXPECT_TRUE(allocation[all[0]] == member(1) ||
              allocation[all[0]] == member(2));
}

TEST(Balance, EmptyWhenNoMatureMembers) {
  VipTable table;
  auto members = std::vector<MemberInfo>{info(1, false)};
  EXPECT_TRUE(balance_ips(groups(3), table, members).empty());
}

TEST(Balance, DeterministicAcrossCalls) {
  VipTable table;
  auto all = groups(13);
  for (int i = 0; i < 13; ++i) {
    table.set_owner(all[static_cast<std::size_t>(i)], member(1 + i % 2));
  }
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3), info(4)};
  EXPECT_EQ(balance_ips(all, table, members),
            balance_ips(all, table, members));
}

// Regression (chaos seed 9): a fenced member that owns nothing is the only
// under-target candidate, and the group evicted from an over-target member
// is exactly the one it is quarantined for. The old placement force-assigned
// it anyway — the fenced owner cannot bind, its re-fence is silent, and the
// address stays dark. Balance must overload a healthy member instead.
TEST(Balance, OverloadsHealthyMemberBeforeQuarantinedOne) {
  VipTable table;
  auto all = groups(7);
  table.set_owner(all[0], member(1));
  table.set_owner(all[1], member(1));
  table.set_owner(all[2], member(2));
  table.set_owner(all[6], member(2));
  table.set_owner(all[3], member(4));
  table.set_owner(all[4], member(4));
  table.set_owner(all[5], member(5));
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3), info(4),
                                         info(5)};
  members[2].quarantined = {all[3], all[4]};  // member 3 owns nothing
  auto allocation = balance_ips(all, table, members);
  ASSERT_EQ(allocation.size(), all.size());
  EXPECT_NE(allocation[all[3]], member(3));
  EXPECT_NE(allocation[all[4]], member(3));
}

// A quarantine for any group marks the whole member suspect: new groups it
// has not (yet) fenced still go to quarantine-free members first, or every
// balance round feeds the sick member a fresh group to burn a retry budget
// on and rip another transient coverage hole.
TEST(Balance, SuspectMemberGetsNoFreshGroupsWhileHealthyMembersExist) {
  VipTable table;
  auto all = groups(6);
  table.set_owner(all[0], member(1));
  table.set_owner(all[1], member(1));
  table.set_owner(all[2], member(2));
  table.set_owner(all[3], member(2));
  auto members = std::vector<MemberInfo>{info(1), info(2), info(3)};
  members[2].quarantined = {all[4]};  // fenced for one group, owns nothing
  auto allocation = balance_ips(all, table, members);
  ASSERT_EQ(allocation.size(), all.size());
  for (const auto& [g, m] : allocation) {
    EXPECT_NE(m, member(3)) << g << " assigned to the suspect member";
  }
  auto assignments = reallocate_ips(all, table, members);
  for (const auto& [g, m] : assignments) {
    EXPECT_NE(m, member(3)) << g << " reallocated to the suspect member";
  }
}

TEST(Balance, ForcedCoverageWhenEveryMemberIsFenced) {
  VipTable table;
  auto all = groups(2);
  auto members = std::vector<MemberInfo>{info(1), info(2)};
  members[0].quarantined = {all[0]};
  members[1].quarantined = {all[0]};
  auto allocation = balance_ips(all, table, members);
  ASSERT_EQ(allocation.size(), all.size());  // nothing left permanently dark
}

TEST(LoadImbalance, MeasuresSpread) {
  VipTable table;
  auto all = groups(5);
  for (const auto& g : all) table.set_owner(g, member(1));
  auto members = std::vector<MemberInfo>{info(1), info(2)};
  EXPECT_EQ(load_imbalance(table, members), 5u);
  auto allocation = balance_ips(all, table, members);
  VipTable balanced;
  for (const auto& [g, m] : allocation) balanced.set_owner(g, m);
  EXPECT_LE(load_imbalance(balanced, members), 1u);
}

}  // namespace
}  // namespace wam::wackamole
