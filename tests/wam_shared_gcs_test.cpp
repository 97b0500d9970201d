// §4.2: "taking into account the fact that Spread may be used for multiple
// applications concurrently" — two independent Wackamole clusters (disjoint
// VIP sets, different group names) share the same GCS daemons without
// interfering.
#include <gtest/gtest.h>

#include "wam_fixture.hpp"

namespace wam::testing {
namespace {

wackamole::Config cluster_config(const std::string& group, int base_octet,
                                 int vips) {
  std::vector<net::Ipv4Address> addrs;
  for (int k = 0; k < vips; ++k) {
    addrs.push_back(net::Ipv4Address(
        10, 0, 0, static_cast<std::uint8_t>(base_octet + k)));
  }
  auto c = wackamole::Config::web_cluster(addrs);
  c.group = group;
  c.maturity_timeout = sim::kZero;
  c.balance_timeout = sim::kZero;
  return c;
}

struct SharedGcsTest : ::testing::Test {
  GcsCluster c{3};
  std::vector<std::unique_ptr<wackamole::RecordingIpManager>> ipmgrs_a,
      ipmgrs_b;
  std::vector<std::unique_ptr<wackamole::Daemon>> wams_a, wams_b;

  void SetUp() override {
    auto config_a = cluster_config("web-tier", 100, 4);
    auto config_b = cluster_config("db-tier", 150, 3);
    for (int i = 0; i < 3; ++i) {
      ipmgrs_a.push_back(
          std::make_unique<wackamole::RecordingIpManager>());
      wams_a.push_back(std::make_unique<wackamole::Daemon>(
          c.sched, config_a, *c.daemons[static_cast<std::size_t>(i)],
          *ipmgrs_a.back(), &c.log));
      ipmgrs_b.push_back(
          std::make_unique<wackamole::RecordingIpManager>());
      wams_b.push_back(std::make_unique<wackamole::Daemon>(
          c.sched, config_b, *c.daemons[static_cast<std::size_t>(i)],
          *ipmgrs_b.back(), &c.log));
    }
    c.start_all();
    for (auto& w : wams_a) w->start();
    for (auto& w : wams_b) w->start();
    c.run(sim::seconds(5.0));
  }

  int holders(std::vector<std::unique_ptr<wackamole::RecordingIpManager>>&
                  mgrs,
              const std::string& group, const std::vector<int>& servers) {
    const auto id = wackamole::intern_group(group);
    int n = 0;
    for (int idx : servers) {
      if (mgrs[static_cast<std::size_t>(idx)]->holds(id)) ++n;
    }
    return n;
  }

  void expect_both_exactly_once(const std::vector<int>& component,
                                const char* where) {
    for (const auto& name : wams_a[0]->config().group_names()) {
      EXPECT_EQ(holders(ipmgrs_a, name, component), 1)
          << where << ": web-tier " << name;
    }
    for (const auto& name : wams_b[0]->config().group_names()) {
      EXPECT_EQ(holders(ipmgrs_b, name, component), 1)
          << where << ": db-tier " << name;
    }
  }
};

TEST_F(SharedGcsTest, BothClustersCoverIndependently) {
  expect_both_exactly_once({0, 1, 2}, "initial");
}

TEST_F(SharedGcsTest, FaultReallocatesBoth) {
  c.hosts[2]->set_interface_up(0, false);
  c.run(sim::seconds(6.0));
  expect_both_exactly_once({0, 1}, "after fault");
}

TEST_F(SharedGcsTest, GracefulLeaveOfOneClusterLeavesTheOtherAlone) {
  auto acquires_b_before =
      wams_b[0]->counters().acquires + wams_b[1]->counters().acquires +
      wams_b[2]->counters().acquires;
  auto views_b_before = wams_b[0]->counters().view_changes;
  wams_a[2]->graceful_shutdown();
  c.run(sim::seconds(2.0));
  // web-tier re-covered among survivors...
  for (const auto& name : wams_a[0]->config().group_names()) {
    EXPECT_EQ(holders(ipmgrs_a, name, {0, 1}), 1);
  }
  // ...while db-tier saw no group view change and moved nothing.
  auto acquires_b_after =
      wams_b[0]->counters().acquires + wams_b[1]->counters().acquires +
      wams_b[2]->counters().acquires;
  EXPECT_EQ(acquires_b_after, acquires_b_before);
  EXPECT_EQ(wams_b[0]->counters().view_changes, views_b_before);
}

TEST_F(SharedGcsTest, PartitionAffectsBothConsistently) {
  c.partition({{0}, {1, 2}});
  c.run(sim::seconds(8.0));
  expect_both_exactly_once({0}, "component A");
  expect_both_exactly_once({1, 2}, "component B");
  c.merge();
  c.run(sim::seconds(8.0));
  expect_both_exactly_once({0, 1, 2}, "after merge");
}

}  // namespace
}  // namespace wam::testing
