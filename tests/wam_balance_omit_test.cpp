// Three pins around BALANCE/ALLOC handling.
//
// 1. MemberId equality ignores the informational name: BALANCE_MSGs carry
//    bare (daemon ip, client id) owner pairs, and the daemon reconstructs
//    MemberIds with an empty name. If the name ever joined the identity,
//    every daemon would conclude "not me" for every allocation entry and
//    drop all its addresses on the next balance round.
//
// 2. A BALANCE whose allocation omits a configured group (version-skewed
//    or buggy representative) must not silently drop that group's
//    coverage: omitted groups keep their present owner.
//
// 3. A message carrying a retired v1 code (STATE 1, BALANCE 2, ALLOC 4)
//    is dropped at the type byte: no STATE/BALANCE counter moves.
#include <gtest/gtest.h>

#include <memory>

#include "apps/cluster_scenario.hpp"
#include "gcs/client.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

namespace wam::wackamole {
namespace {

TEST(MemberId, EqualityIgnoresInformationalName) {
  gcs::DaemonId d(net::Ipv4Address(10, 0, 0, 1));
  gcs::MemberId a{d, 1, "wackamole"};
  gcs::MemberId b{d, 1, ""};
  gcs::MemberId c{d, 2, "wackamole"};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_NE(a, c);
  gcs::MemberId other{gcs::DaemonId(net::Ipv4Address(10, 0, 0, 2)), 1,
                      "wackamole"};
  EXPECT_NE(a, other);
}

struct BalanceOmitTest : ::testing::Test {
  apps::ClusterOptions opt;
  std::unique_ptr<apps::ClusterScenario> s;

  void SetUp() override {
    opt.num_servers = 3;
    opt.num_vips = 6;
    opt.with_router = false;
    s = std::make_unique<apps::ClusterScenario>(opt);
    s->start();
    ASSERT_TRUE(s->run_until_stable(sim::seconds(10.0)));
    s->wam(0).trigger_balance();
    s->run(sim::seconds(1.0));
    ASSERT_TRUE(s->coverage_exactly_once(s->all_servers()));
  }

  /// Multicast raw bytes into the wackamole group from a connected,
  /// non-member injector client — the version-skewed-peer vector.
  void inject(util::Bytes payload) {
    gcs::Client injector("injector", gcs::ClientCallbacks{});
    ASSERT_TRUE(injector.connect(s->gcs_daemon(0)));
    injector.multicast(s->wam(0).config().group, std::move(payload));
    s->run(sim::seconds(2.0));
    injector.disconnect();
  }
};

TEST_F(BalanceOmitTest, OmittedGroupKeepsItsOwnerAndCoverage) {
  const auto& groups = s->wam(0).config().vip_groups;
  ASSERT_GE(groups.size(), 2u);
  const std::string omitted = groups.front().name;
  auto before = s->wam(0).table().owner(omitted);
  ASSERT_TRUE(before.has_value());

  // Re-assert every current owner except the omitted group's.
  BalanceMsgV2 msg;
  msg.view = ViewTag::of(*s->wam(0).view());
  for (const auto& g : groups) {
    if (g.name == omitted) continue;
    auto owner = s->wam(0).table().owner(g.name);
    ASSERT_TRUE(owner.has_value()) << g.name;
    msg.allocation.emplace_back(
        intern_group(g.name),
        std::make_pair(owner->daemon.value(), owner->client));
  }
  inject(encode_balance_v2(msg));

  // The omission must not have moved or dropped anything.
  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
  auto after = s->wam(0).table().owner(omitted);
  ASSERT_TRUE(after.has_value())
      << "omitted group lost its owner — coverage silently dropped";
  EXPECT_EQ(*after, *before);
}

TEST_F(BalanceOmitTest, ReassignmentStillAppliesForListedGroups) {
  // Same skewed message, but one listed group is explicitly moved to
  // another server: the move must apply even while omissions are ignored.
  const auto& groups = s->wam(0).config().vip_groups;
  const std::string omitted = groups.front().name;
  const std::string moved = groups.back().name;
  ASSERT_NE(omitted, moved);
  auto old_owner = s->wam(0).table().owner(moved);
  ASSERT_TRUE(old_owner.has_value());
  // Pick a different server as the new owner.
  gcs::MemberId new_owner = *old_owner;
  for (int i = 0; i < opt.num_servers; ++i) {
    auto self = s->wam(i).self();
    ASSERT_TRUE(self.has_value());
    if (!(*self == *old_owner)) {
      new_owner = *self;
      break;
    }
  }
  ASSERT_NE(new_owner, *old_owner);

  BalanceMsgV2 msg;
  msg.view = ViewTag::of(*s->wam(0).view());
  for (const auto& g : groups) {
    if (g.name == omitted) continue;
    auto owner = g.name == moved ? new_owner : *s->wam(0).table().owner(g.name);
    msg.allocation.emplace_back(
        intern_group(g.name),
        std::make_pair(owner.daemon.value(), owner.client));
  }
  inject(encode_balance_v2(msg));

  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
  auto now_owner = s->wam(0).table().owner(moved);
  ASSERT_TRUE(now_owner.has_value());
  EXPECT_EQ(*now_owner, new_owner);
}

TEST_F(BalanceOmitTest, ReservedV1CodesAreDropped) {
  // A well-formed v1 BALANCE body (code 2) moving every group to one
  // server, then bare STATE (1) and ALLOC (4) codes: none may be decoded.
  const auto& groups = s->wam(0).config().vip_groups;
  auto target = s->wam(1).self();
  ASSERT_TRUE(target.has_value());
  util::ByteWriter v1;
  v1.u8(2);
  const auto tag = ViewTag::of(*s->wam(0).view());
  v1.u64(tag.epoch);
  v1.u32(tag.coordinator);
  v1.u64(tag.group_seq);
  v1.u32(static_cast<std::uint32_t>(groups.size()));
  for (const auto& g : groups) {
    v1.str(g.name);
    v1.u32(target->daemon.value());
    v1.u32(target->client);
  }

  std::vector<std::uint64_t> before;
  for (int i = 0; i < opt.num_servers; ++i) {
    const auto& c = s->wam(i).counters();
    before.push_back(c.state_msgs_received.value());
    before.push_back(c.balance_applied.value());
    before.push_back(c.stale_msgs_ignored.value());
  }
  inject(v1.take());
  inject(util::Bytes{1, 0, 0, 0, 0});
  inject(util::Bytes{4, 0, 0, 0, 0});

  for (int i = 0; i < opt.num_servers; ++i) {
    const auto& c = s->wam(i).counters();
    const auto k = static_cast<std::size_t>(3 * i);
    EXPECT_EQ(c.state_msgs_received.value(), before[k]) << "server " << i;
    EXPECT_EQ(c.balance_applied.value(), before[k + 1]) << "server " << i;
    EXPECT_EQ(c.stale_msgs_ignored.value(), before[k + 2]) << "server " << i;
  }
  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
}

}  // namespace
}  // namespace wam::wackamole
