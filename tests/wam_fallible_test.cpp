// The fallible enforcement layer: acquire retry/backoff schedules, the
// NOTIFY self-fence protocol (fence, targeted reallocation at the peers,
// cooldown probe, quarantine clear) and the PanicRelease observability
// event. Algorithm-level tests use RecordingIpManager with scripted
// results for exact op-sequence and backoff-timing assertions; end-to-end
// tests drive a ClusterScenario through the FaultyIpManager decorator.
#include <gtest/gtest.h>

#include "apps/cluster_scenario.hpp"
#include "wackamole/wire.hpp"
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

// Bring up two daemons where s1 holds both groups of fallible_config(2) (it
// starts alone and claims everything; s2's join leaves no hole), script
// `failures` failed results into s1's manager, then run one balance round,
// which moves one group to s2. Returns the moved group once s1 has tried
// to release it (within 1 ms); that release is the first scripted op.
std::string balance_one_group_away(WamCluster& c, int failures) {
  c.start_all();
  c.wams[0]->start();
  c.run(sim::seconds(5.0));
  c.wams[1]->start();
  c.run(sim::seconds(3.0));
  EXPECT_EQ(c.wams[0]->owned().size(), 2u);
  c.ipmgrs[0]->clear_ops();
  for (int i = 0; i < failures; ++i) {
    c.ipmgrs[0]->push_result(OsOpResult::failed("ebusy"));
  }
  EXPECT_TRUE(c.wams[0]->trigger_balance() || c.wams[1]->trigger_balance());
  auto deadline = c.sched.now() + sim::seconds(1.0);
  while (c.ipmgrs[0]->ops().empty() && c.sched.now() < deadline) {
    c.run(sim::milliseconds(1));
  }
  if (c.ipmgrs[0]->ops().empty()) return "";
  // "release <name> [failed]" -> "<name>"
  const auto& op = c.ipmgrs[0]->ops().front();
  const auto start = op.find(' ') + 1;
  return op.substr(start, op.find(' ', start) - start);
}

TEST(WamFallible, FailedReleaseRetriesOnTheAcquireBackoff) {
  WamCluster c(2, fallible_config(2));
  auto& mgr = *c.ipmgrs[0];
  const auto moved = balance_one_group_away(c, 2);
  ASSERT_FALSE(moved.empty());
  auto t1 = c.sched.now();  // the failed release, within the last 1 ms step

  // Step in 1 ms ticks until the op count reaches `n`, returning the time.
  auto when_ops = [&](std::size_t n) {
    auto deadline = c.sched.now() + sim::seconds(1.0);
    while (mgr.ops().size() < n && c.sched.now() < deadline) {
      c.run(sim::milliseconds(1));
    }
    EXPECT_GE(mgr.ops().size(), n) << "timed out waiting for op " << n;
    return c.sched.now();
  };
  auto t2 = when_ops(2);  // retry #1 fails again
  auto t3 = when_ops(3);  // retry #2: the unbind sticks

  // A failed release never gives up and uses the acquire backoff: base,
  // then 2*base (jitter disabled; +- the 1 ms stepping granularity).
  EXPECT_NEAR(sim::to_millis(t2 - t1), 100.0, 2.0);
  EXPECT_NEAR(sim::to_millis(t3 - t2), 200.0, 2.0);
  const auto failed = "release " + moved + " [failed]";
  EXPECT_EQ(mgr.ops(), (std::vector<std::string>{failed, failed,
                                                 "release " + moved}));
  EXPECT_EQ(c.wams[0]->counters().release_retries.value(), 2u);
  c.run(sim::seconds(1.0));
  EXPECT_EQ(mgr.ops().size(), 3u) << "no retry after the release stuck";
  EXPECT_EQ(c.holders(moved, {0, 1}), 1);
  EXPECT_TRUE(c.ipmgrs[1]->holds(wackamole::intern_group(moved)));
}

TEST(WamFallible, ReleaseRetryStopsWhenTheGroupIsReassignedBack) {
  WamCluster c(2, fallible_config(2));
  auto& mgr = *c.ipmgrs[0];
  const auto moved = balance_one_group_away(c, 1);
  ASSERT_FALSE(moved.empty());
  ASSERT_EQ(c.wams[0]->counters().release_retries.value(), 1u);

  // Within the 100 ms backoff, a BALANCE hands every group back to s1.
  auto self = c.wams[0]->self();
  ASSERT_TRUE(self.has_value());
  wackamole::BalanceMsgV2 msg;
  msg.view = wackamole::ViewTag::of(*c.wams[0]->view());
  for (const auto& name : c.wams[0]->config().group_names()) {
    msg.allocation.emplace_back(
        wackamole::intern_group(name),
        std::make_pair(self->daemon.value(), self->client));
  }
  gcs::Client injector("injector", gcs::ClientCallbacks{});
  ASSERT_TRUE(injector.connect(*c.daemons[0]));
  const auto applied = c.wams[0]->counters().balance_applied.value();
  injector.multicast(c.wams[0]->config().group,
                     wackamole::encode_balance_v2(msg));
  c.run(sim::milliseconds(50));
  ASSERT_EQ(c.wams[0]->counters().balance_applied.value(), applied + 1)
      << "the hand-back must land before the retry fires";

  // The retry finds the group assigned to s1 again and stops: no second
  // release attempt, and s1 keeps covering the group it failed to drop.
  c.run(sim::seconds(2.0));
  injector.disconnect();
  EXPECT_EQ(mgr.ops(),
            (std::vector<std::string>{"release " + moved + " [failed]"}));
  EXPECT_EQ(c.wams[0]->counters().release_retries.value(), 1u);
  EXPECT_TRUE(mgr.holds(wackamole::intern_group(moved)));
  EXPECT_EQ(c.holders(moved, {0, 1}), 1);
}

// An acquire that succeeds by another path must cancel the retry timer
// its earlier failure armed. Otherwise that stale timer fires into a fresh
// retry entry for the same group and makes an attempt one backoff too
// early, spending the fresh entry's budget.
TEST(WamFallible, StaleAcquireRetryTimerDoesNotFireIntoAFreshEntry) {
  auto config = fallible_config();
  config.acquire_backoff = sim::seconds(1.0);
  WamCluster c(2, config);
  c.start_all();
  c.wams[0]->start();
  c.run(sim::seconds(5.0));
  c.wams[1]->start();
  c.run(sim::seconds(3.0));
  auto& mgr = *c.ipmgrs[0];
  ASSERT_TRUE(mgr.holds(vip0()));
  mgr.clear_ops();

  gcs::Client injector("injector", gcs::ClientCallbacks{});
  ASSERT_TRUE(injector.connect(*c.daemons[0]));
  // Hand vip0 to wams[idx] with a BALANCE and let it land at both daemons.
  auto assign = [&](std::size_t idx) {
    auto owner = c.wams[idx]->self();
    ASSERT_TRUE(owner.has_value());
    wackamole::BalanceMsgV2 msg;
    msg.view = wackamole::ViewTag::of(*c.wams[0]->view());
    msg.allocation.emplace_back(
        vip0(), std::make_pair(owner->daemon.value(), owner->client));
    const auto applied = c.wams[0]->counters().balance_applied.value();
    injector.multicast(c.wams[0]->config().group,
                       wackamole::encode_balance_v2(msg));
    c.run(sim::milliseconds(50));
    ASSERT_EQ(c.wams[0]->counters().balance_applied.value(), applied + 1);
  };

  assign(1);  // s1 releases
  // The injector sits on s1's daemon, so s1 applies each BALANCE the
  // instant it is sent.
  mgr.push_result(OsOpResult::failed("ebusy"));
  const auto first_failure = c.sched.now();
  assign(0);  // the acquire fails: a retry is armed for one backoff
  assign(0);  // the acquire succeeds by the BALANCE path instead
  assign(1);
  mgr.push_result(OsOpResult::failed("ebusy"));
  const auto fresh_failure = c.sched.now();
  assign(0);  // a fresh failure: a fresh entry with its own timer
  ASSERT_EQ(fresh_failure - first_failure, sim::milliseconds(150));
  const std::vector<std::string> before{
      "release 10.0.0.100", "acquire 10.0.0.100 [failed]",
      "acquire 10.0.0.100", "release 10.0.0.100",
      "acquire 10.0.0.100 [failed]"};
  ASSERT_EQ(mgr.ops(), before);

  // Past the first failure's backoff, but not the fresh one's: nothing.
  c.run(first_failure + sim::milliseconds(1075) - c.sched.now());
  EXPECT_EQ(mgr.ops(), before) << "the stale retry timer fired";

  // The fresh entry's own retry comes one backoff after its failure.
  c.run(fresh_failure + sim::milliseconds(1001) - c.sched.now());
  injector.disconnect();
  auto after = before;
  after.push_back("acquire 10.0.0.100");
  EXPECT_EQ(mgr.ops(), after);
  EXPECT_TRUE(mgr.holds(vip0()));
  EXPECT_EQ(c.wams[0]->counters().acquire_retries.value(), 2u);
  EXPECT_EQ(c.holders("10.0.0.100", {0, 1}), 1);
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
      const auto c = e.field("cause");
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
