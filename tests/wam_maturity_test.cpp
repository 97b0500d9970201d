// The bootstrap ("maturity") optimization of §3.4: a freshly started server
// owns nothing until it meets a mature peer or its maturity timeout fires.
#include <gtest/gtest.h>

#include "wam_fixture.hpp"

namespace wam::testing {
namespace {

wackamole::Config immature_config(int vips, double maturity_seconds) {
  auto c = test_config(vips);
  c.maturity_timeout = sim::seconds(maturity_seconds);
  return c;
}

TEST(WamMaturity, FreshClusterOwnsNothingBeforeTimeout) {
  WamCluster c(3, immature_config(6, 20.0));
  c.start_wam();
  c.run(sim::seconds(10.0));  // converged, but all immature
  for (auto& w : c.wams) {
    EXPECT_EQ(w->state(), wackamole::WamState::kRun);
    EXPECT_FALSE(w->mature());
    EXPECT_TRUE(w->owned().empty());
  }
}

TEST(WamMaturity, TimeoutBootstrapsExactlyOnce) {
  WamCluster c(3, immature_config(6, 20.0));
  // Stagger the starts slightly (real machines never boot in lockstep):
  // only the first maturity timer should ever fire.
  c.start_all();
  for (int i = 0; i < 3; ++i) {
    c.sched.schedule(sim::milliseconds(200 * i), [&c, i] {
      c.wams[static_cast<std::size_t>(i)]->start();
    });
  }
  c.run(sim::seconds(30.0));
  // Someone's timeout fired, it claimed everything and announced itself.
  c.expect_correctness({0, 1, 2}, "after bootstrap");
  std::uint64_t timeouts = 0;
  for (auto& w : c.wams) {
    timeouts += w->counters().maturity_timeouts;
    EXPECT_TRUE(w->mature());
  }
  EXPECT_EQ(timeouts, 1u);  // the STATE_MSG matured everyone else
}

TEST(WamMaturity, ImmatureJoinerDoesNotStealVips) {
  auto mature_cfg = test_config(6);  // starts mature
  WamCluster c(3, mature_cfg);
  // Replace daemon 2's config with an immature one (same VIP set).
  auto immature_cfg = immature_config(6, 1000.0);
  c.wams[2] = std::make_unique<wackamole::Daemon>(
      c.sched, immature_cfg, *c.daemons[2], *c.ipmgrs[2], &c.log);
  c.daemons[0]->start();
  c.daemons[1]->start();
  c.wams[0]->start();
  c.wams[1]->start();
  c.run(sim::seconds(5.0));
  c.expect_correctness({0, 1}, "before join");

  c.daemons[2]->start();
  c.wams[2]->start();
  c.run(sim::seconds(8.0));
  // Server 2 met mature peers: it is mature now, but reallocation found no
  // holes, so it still owns nothing (no churn on boot — the point of §3.4).
  EXPECT_TRUE(c.wams[2]->mature());
  EXPECT_TRUE(c.wams[2]->owned().empty());
  c.expect_correctness({0, 1, 2}, "after join");
}

TEST(WamMaturity, BalanceMaturesAndLoadsTheJoiner) {
  auto mature_cfg = test_config(6);
  mature_cfg.balance_timeout = sim::seconds(10.0);
  WamCluster c(2, mature_cfg);
  auto immature_cfg = immature_config(6, 1000.0);
  immature_cfg.balance_timeout = sim::seconds(10.0);
  c.wams[1] = std::make_unique<wackamole::Daemon>(
      c.sched, immature_cfg, *c.daemons[1], *c.ipmgrs[1], &c.log);
  c.daemons[0]->start();
  c.wams[0]->start();
  c.run(sim::seconds(5.0));
  c.daemons[1]->start();
  c.wams[1]->start();
  c.run(sim::seconds(5.0));
  EXPECT_TRUE(c.wams[1]->owned().empty());
  c.run(sim::seconds(12.0));  // balance fires
  c.expect_correctness({0, 1}, "after balance");
  EXPECT_EQ(c.wams[0]->owned().size(), 3u);
  EXPECT_EQ(c.wams[1]->owned().size(), 3u);
}

TEST(WamMaturity, ZeroTimeoutMeansImmediatelyMature) {
  auto cfg = test_config(4);
  cfg.maturity_timeout = sim::kZero;
  WamCluster c(1, cfg);
  c.start_wam();
  c.run(sim::seconds(5.0));
  EXPECT_TRUE(c.wams[0]->mature());
  EXPECT_EQ(c.wams[0]->owned().size(), 4u);
}

}  // namespace
}  // namespace wam::testing
