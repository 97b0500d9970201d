// The fallible enforcement layer: acquire retry/backoff schedules, the
// NOTIFY self-fence protocol (fence, targeted reallocation at the peers,
// cooldown probe, quarantine clear) and the PanicRelease observability
// event. Algorithm-level tests use RecordingIpManager with scripted
// results for exact op-sequence and backoff-timing assertions; end-to-end
// tests drive a ClusterScenario through the FaultyIpManager decorator.
#include <gtest/gtest.h>

#include "apps/cluster_scenario.hpp"
#include "wam_fixture.hpp"

namespace wam::testing {
namespace {

using wackamole::OsOpResult;

/// The id of test_config(1)'s single VIP group.
wackamole::GroupId vip0() { return wackamole::intern_group("10.0.0.100"); }

/// test_config(1) with deterministic backoff (no jitter, 100 ms base).
wackamole::Config fallible_config(int vips = 1) {
  auto c = test_config(vips);
  c.backoff_jitter = 0.0;
  c.acquire_backoff = sim::milliseconds(100);
  c.acquire_backoff_max = sim::seconds(2.0);
  c.acquire_retry_limit = 4;
  return c;
}

TEST(WamFallible, RetryBackoffScheduleIsExponential) {
  WamCluster c(1, fallible_config());
  auto& mgr = *c.ipmgrs[0];
  mgr.push_result(OsOpResult::failed("ebusy"));
  mgr.push_result(OsOpResult::failed("ebusy"));
  c.start_wam();

  // Step in 1 ms ticks until the op count reaches `n`, returning the time.
  auto when_ops = [&](std::size_t n, sim::Duration limit) {
    auto deadline = c.sched.now() + limit;
    while (mgr.ops().size() < n && c.sched.now() < deadline) {
      c.run(sim::milliseconds(1));
    }
    EXPECT_GE(mgr.ops().size(), n) << "timed out waiting for op " << n;
    return c.sched.now();
  };
  auto t1 = when_ops(1, sim::seconds(30.0));  // initial acquire fails
  auto t2 = when_ops(2, sim::seconds(1.0));   // retry #1
  auto t3 = when_ops(3, sim::seconds(1.0));   // retry #2 succeeds

  // Jitter disabled: the schedule is exactly base, 2*base (+- the 1 ms
  // stepping granularity).
  EXPECT_NEAR(sim::to_millis(t2 - t1), 100.0, 2.0);
  EXPECT_NEAR(sim::to_millis(t3 - t2), 200.0, 2.0);
  EXPECT_EQ(mgr.ops(),
            (std::vector<std::string>{"acquire 10.0.0.100 [failed]",
                                      "acquire 10.0.0.100 [failed]",
                                      "acquire 10.0.0.100"}));
  EXPECT_TRUE(mgr.holds(vip0()));
  EXPECT_EQ(c.wams[0]->counters().acquire_failures.value(), 2u);
  EXPECT_EQ(c.wams[0]->counters().acquire_retries.value(), 2u);
  EXPECT_EQ(c.wams[0]->counters().groups_fenced.value(), 0u);
  EXPECT_FALSE(c.wams[0]->quarantined("10.0.0.100"));
}

/// Step `c` in 10 ms ticks until `done()` or `limit` elapses.
template <typename Pred>
bool run_until(WamCluster& c, Pred done, sim::Duration limit) {
  auto deadline = c.sched.now() + limit;
  while (!done() && c.sched.now() < deadline) {
    c.run(sim::milliseconds(10));
  }
  return done();
}

// Bring up a 3-daemon cluster where s2 holds the single group, s1 has an
// empty op queue and owns nothing, and everyone is settled in RUN. A later
// graceful shutdown of s2 then creates one hole that the deterministic
// reallocation hands to s1 (first in membership order) — the exact moment
// the scripted failures in s1's queue start firing, with no join churn
// consuming them first.
void settle_with_s2_holding(WamCluster& c) {
  c.start_all();
  c.wams[1]->start();
  c.wams[2]->start();
  c.run(sim::seconds(5.0));
  ASSERT_TRUE(c.ipmgrs[1]->holds(vip0()));
  c.wams[0]->start();  // joins; s2's claim leaves no hole for s1
  c.run(sim::seconds(3.0));
  ASSERT_TRUE(c.ipmgrs[0]->ops().empty());
}

TEST(WamFallible, BudgetExhaustionFencesAndPeerTakesOver) {
  auto config = fallible_config();
  config.quarantine_cooldown = sim::seconds(5.0);
  WamCluster c(3, config);
  settle_with_s2_holding(c);
  // 4 scripted failures = the full retry budget: initial + 3 retries.
  for (int i = 0; i < 4; ++i) {
    c.ipmgrs[0]->push_result(OsOpResult::failed("ebusy"));
  }
  c.wams[1]->graceful_shutdown();  // the hole lands on s1, whose OS is sick
  ASSERT_TRUE(run_until(
      c, [&] { return c.wams[0]->counters().groups_fenced.value() >= 1; },
      sim::seconds(10.0)));
  c.run(sim::seconds(0.5));  // let the NOTIFY-triggered realloc land

  EXPECT_TRUE(c.wams[0]->quarantined("10.0.0.100"));
  EXPECT_FALSE(c.ipmgrs[0]->holds(vip0()));
  EXPECT_TRUE(c.ipmgrs[2]->holds(vip0()))
      << "NOTIFY must migrate coverage to the healthy peer";
  EXPECT_EQ(c.wams[0]->counters().groups_fenced.value(), 1u);
  EXPECT_EQ(c.wams[0]->counters().acquire_failures.value(), 4u);
  EXPECT_GE(c.wams[0]->counters().notifies_sent.value(), 1u);
  EXPECT_GE(c.wams[2]->counters().notifies_received.value(), 1u);

  // Cooldown: the probe (an announce, since the peer owns the group now)
  // succeeds — the fault was transient — and the quarantine clears.
  c.run(sim::seconds(6.0));
  EXPECT_FALSE(c.wams[0]->quarantined("10.0.0.100"));
  EXPECT_EQ(c.wams[0]->counters().groups_unfenced.value(), 1u);
  EXPECT_TRUE(c.ipmgrs[2]->holds(vip0()));  // no churn on clear

  // After the clear the member is eligible again: lose the current holder
  // and the group must come back to the once-fenced server.
  c.daemons[2]->stop();
  c.run(sim::seconds(10.0));
  EXPECT_TRUE(c.ipmgrs[0]->holds(vip0()));
  EXPECT_EQ(c.holders("10.0.0.100", {0, 1, 2}), 1);
}

TEST(WamFallible, QuarantineSticksWhileProbeKeepsFailing) {
  auto config = fallible_config();
  config.quarantine_cooldown = sim::seconds(2.0);
  WamCluster c(3, config);
  settle_with_s2_holding(c);
  // The scripted FIFO is shared across op kinds: 4 failures exhaust the
  // acquire budget, the 5th feeds the fence's partial-state release, and
  // the last two keep the first two cooldown announce-probes failing.
  for (int i = 0; i < 7; ++i) {
    c.ipmgrs[0]->push_result(OsOpResult::failed("ebusy"));
  }
  c.wams[1]->graceful_shutdown();
  ASSERT_TRUE(run_until(
      c, [&] { return c.wams[0]->counters().groups_fenced.value() >= 1; },
      sim::seconds(10.0)));

  c.run(sim::seconds(5.0));  // two cooldown probes, both scripted to fail
  EXPECT_TRUE(c.wams[0]->quarantined("10.0.0.100"));
  EXPECT_EQ(c.wams[0]->counters().groups_unfenced.value(), 0u);
  EXPECT_TRUE(c.ipmgrs[2]->holds(vip0()));

  // Once the queue drains, the next probe succeeds and the fence lifts.
  ASSERT_TRUE(run_until(
      c, [&] { return !c.wams[0]->quarantined("10.0.0.100"); },
      sim::seconds(20.0)));
  EXPECT_EQ(c.wams[0]->counters().groups_unfenced.value(), 1u);
}

TEST(WamFallible, StickyFaultEndToEndMigratesAndRejoins) {
  apps::ClusterOptions opt;
  opt.num_servers = 3;
  opt.num_vips = 3;  // one VIP each after stabilization
  opt.with_router = false;
  opt.quarantine_cooldown = sim::seconds(2.0);
  apps::ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(30.0)));
  ASSERT_TRUE(s.coverage_exactly_once(s.all_servers()));

  // All VIPs settle on server1 (the first joiner's singleton group view
  // claims everything, and without a balance round claims stick). Kill
  // server2's enforcement layer, then vacate server1: every hole lands on
  // server2 (first in remaining membership order), whose acquires all
  // fail — it fences the lot and NOTIFY migrates coverage to server3.
  s.set_os_fail_sticky(1);
  s.graceful_leave(0);
  s.run(sim::seconds(8.0));

  ASSERT_FALSE(s.wam(1).quarantined_groups().empty());
  EXPECT_GE(s.wam(1).counters().groups_fenced.value(), 1u);
  EXPECT_TRUE(s.coverage_exactly_once({1, 2}))
      << "fenced groups must be re-covered by the healthy peer";
  EXPECT_GE(s.timeline.count(obs::EventType::kGroupFenced), 1u);

  // Heal: the cooldown probes now succeed and the quarantines clear.
  s.heal_os(1);
  s.run(sim::seconds(5.0));
  EXPECT_TRUE(s.wam(1).quarantined_groups().empty());
  EXPECT_GE(s.timeline.count(obs::EventType::kGroupUnfenced), 1u);
  EXPECT_TRUE(s.coverage_exactly_once({1, 2}));
}

TEST(WamFallible, PanicReleaseEventCarriesCause) {
  apps::ClusterOptions opt;
  opt.num_servers = 3;
  opt.num_vips = 3;
  opt.with_router = false;
  apps::ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(30.0)));

  auto panic_with_cause = [&](const char* cause) {
    for (const auto& e : s.timeline.events()) {
      if (e.type != obs::EventType::kPanicRelease) continue;
      const auto* c = e.field("cause");
      if (c && *c == cause) return true;
    }
    return false;
  };

  s.crash_daemon(0);  // GCS loss: release everything at once (§4.2)
  s.run(sim::seconds(2.0));
  ASSERT_GE(s.timeline.count(obs::EventType::kPanicRelease), 1u);
  EXPECT_TRUE(panic_with_cause("gcs_disconnect"))
      << "PanicRelease must name its triggering cause";

  s.graceful_leave(1);
  s.run(sim::seconds(1.0));
  EXPECT_TRUE(panic_with_cause("graceful_shutdown"));
}

}  // namespace
}  // namespace wam::testing
