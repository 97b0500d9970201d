// Weighted load balancing: shares proportional to per-server capacity
// weights, at the pure-procedure level and through the full stack.
#include <gtest/gtest.h>

#include "wackamole/balance.hpp"
#include "wackamole/conf_parser.hpp"
#include "wam_fixture.hpp"

namespace wam::testing {
namespace {

using wackamole::MemberInfo;
using wackamole::VipTable;

gcs::MemberId member(int n) {
  return gcs::MemberId{
      gcs::DaemonId(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n))),
      1, "w"};
}

std::vector<std::string> groups(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back("g" + std::to_string(10 + i));
  }
  return out;
}

TEST(WeightedBalance, SharesProportionalToWeights) {
  VipTable table;
  auto all = groups(9);
  for (const auto& g : all) table.set_owner(g, member(1));
  std::vector<MemberInfo> members = {
      MemberInfo{member(1), true, 2, {}, {}},  // weight 2
      MemberInfo{member(2), true, 1, {}, {}},  // weight 1
  };
  auto allocation = wackamole::balance_ips(all, table, members);
  std::map<gcs::MemberId, int> load;
  for (const auto& [g, m] : allocation) ++load[m];
  EXPECT_EQ(load[member(1)], 6);  // 9 * 2/3
  EXPECT_EQ(load[member(2)], 3);  // 9 * 1/3
}

TEST(WeightedBalance, RemainderGoesToLargestFraction) {
  VipTable table;
  auto all = groups(10);
  for (const auto& g : all) table.set_owner(g, member(1));
  std::vector<MemberInfo> members = {
      MemberInfo{member(1), true, 1, {}, {}},
      MemberInfo{member(2), true, 2, {}, {}},
  };
  // 10 * 1/3 = 3.33, 10 * 2/3 = 6.67: remainder goes to member 2.
  auto allocation = wackamole::balance_ips(all, table, members);
  std::map<gcs::MemberId, int> load;
  for (const auto& [g, m] : allocation) ++load[m];
  EXPECT_EQ(load[member(1)], 3);
  EXPECT_EQ(load[member(2)], 7);
}

TEST(WeightedBalance, EqualWeightsMatchUnweightedBehaviour) {
  VipTable table;
  auto all = groups(8);
  for (const auto& g : all) table.set_owner(g, member(1));
  std::vector<MemberInfo> members = {
      MemberInfo{member(1), true, 3, {}, {}},
      MemberInfo{member(2), true, 3, {}, {}},
  };
  auto allocation = wackamole::balance_ips(all, table, members);
  std::map<gcs::MemberId, int> load;
  for (const auto& [g, m] : allocation) ++load[m];
  EXPECT_EQ(load[member(1)], 4);
  EXPECT_EQ(load[member(2)], 4);
}

TEST(WeightedBalance, ReallocateFavoursBiggerServers) {
  // Empty table, 6 holes, weights 2:1 -> the weight-2 server should end up
  // with about twice the addresses.
  VipTable table;
  auto all = groups(6);
  std::vector<MemberInfo> members = {
      MemberInfo{member(1), true, 2, {}, {}},
      MemberInfo{member(2), true, 1, {}, {}},
  };
  auto assignments = wackamole::reallocate_ips(all, table, members);
  std::map<gcs::MemberId, int> load;
  for (const auto& [g, m] : assignments) ++load[m];
  EXPECT_EQ(load[member(1)], 4);
  EXPECT_EQ(load[member(2)], 2);
}

TEST(WeightedBalance, EndToEndWeightsPropagateViaStateMsgs) {
  auto heavy = test_config(9);
  heavy.weight = 2;
  heavy.balance_timeout = sim::seconds(5.0);
  auto light = test_config(9);
  light.weight = 1;
  light.balance_timeout = sim::seconds(5.0);

  WamCluster c(3, light);
  // Server 0 is the heavyweight.
  c.wams[0] = std::make_unique<wackamole::Daemon>(
      c.sched, heavy, *c.daemons[0], *c.ipmgrs[0], &c.log);
  c.start_wam();
  c.run(sim::seconds(12.0));  // converge + one balance round
  c.expect_correctness({0, 1, 2}, "weighted");
  // 9 VIPs at weights 2:1:1 -> 4 or 5 for the heavy server, 2-3 each for
  // the light ones.
  EXPECT_GE(c.wams[0]->owned().size(), 4u);
  EXPECT_LE(c.wams[1]->owned().size(), 3u);
  EXPECT_LE(c.wams[2]->owned().size(), 3u);
}

TEST(WeightedBalance, ConfWeightKeyParses) {
  auto c = wackamole::parse_config(
      "Weight = 4\nVirtualInterfaces {\n{ if0: 10.0.0.1 }\n}\n");
  EXPECT_EQ(c.weight, 4);
  EXPECT_NE(wackamole::render_config(c).find("Weight = 4"),
            std::string::npos);
  EXPECT_THROW(wackamole::parse_config(
                   "Weight = 0\nVirtualInterfaces {\n{ if0: 10.0.0.1 }\n}\n"),
               wackamole::ConfigError);
}

}  // namespace
}  // namespace wam::testing
