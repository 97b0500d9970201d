// Self-stabilization, GCS side: the ViewAuditor's TMR-lite shadow of the
// installed view, and the daemon's heal path — restore the shadow, fold
// the epoch high-water into the next incarnation, re-enter discovery.
#include "gcs/audit.hpp"

#include <gtest/gtest.h>

#include "apps/cluster_scenario.hpp"
#include "gcs/daemon.hpp"

namespace wam::gcs {
namespace {

DaemonId id(int last) {
  return net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(last));
}

View view(std::uint64_t epoch, std::vector<DaemonId> members) {
  return View{ViewId{epoch, members.front()}, std::move(members)};
}

// ------------------------------------------------------- shadow auditor ----

TEST(ViewAuditor, SilentBeforeTheFirstRecord) {
  ViewAuditor a;
  EXPECT_FALSE(a.audit(view(1, {id(1)}), id(1)).has_value());
}

TEST(ViewAuditor, CleanViewMatchesItsShadow) {
  ViewAuditor a;
  auto v = view(3, {id(1), id(2), id(3)});
  a.record(v);
  EXPECT_FALSE(a.audit(v, id(2)).has_value());
  EXPECT_EQ(a.shadow_epoch(), 3u);
}

TEST(ViewAuditor, FlippedEpochIsAnIdMismatch) {
  ViewAuditor a;
  auto v = view(3, {id(1), id(2)});
  a.record(v);
  auto live = v;
  live.id.epoch ^= 0x40;  // exactly what chaos_flip_view_epoch() does
  auto f = a.audit(live, id(1));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->check, ViewCheck::kIdMismatch);
}

TEST(ViewAuditor, MutatedMembershipIsAMembersMismatch) {
  ViewAuditor a;
  auto v = view(3, {id(1), id(2), id(3)});
  a.record(v);
  auto live = v;
  live.members.pop_back();
  auto f = a.audit(live, id(1));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->check, ViewCheck::kMembersMismatch);
}

TEST(ViewAuditor, EpochHighWaterSurvivesLaterRecords) {
  ViewAuditor a;
  a.record(view(5, {id(1), id(2)}));
  // A corrupted re-record below the high-water mark: the shadow follows,
  // but the epoch high-water does not regress — the audit flags it.
  auto old_view = view(3, {id(1), id(2)});
  a.record(old_view);
  EXPECT_EQ(a.shadow_epoch(), 5u);
  auto f = a.audit(old_view, id(1));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->check, ViewCheck::kEpochRegressed);
}

TEST(ViewAuditor, SelfEvictedFromItsOwnViewIsAFinding) {
  ViewAuditor a;
  auto v = view(4, {id(1), id(2)});
  a.record(v);
  auto f = a.audit(v, id(9));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->check, ViewCheck::kSelfMissing);
}

// ------------------------------------------------------- daemon healing ----

apps::ClusterOptions audited_cluster() {
  apps::ClusterOptions opt;
  opt.num_servers = 3;
  opt.num_vips = 5;
  opt.with_router = false;
  opt.resync_delay = sim::milliseconds(500);
  opt.resync_backoff_max = sim::seconds(4.0);
  opt.quarantine_cooldown = sim::seconds(5.0);
  return opt;
}

TEST(GcsSelfHeal, FlippedViewEpochHealsThroughRediscovery) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  ASSERT_TRUE(s.flip_view_id(1));
  s.run(sim::seconds(2.0));
  EXPECT_GE(s.gcs_daemon(1).counters().corruptions_detected.value(), 1u);
  EXPECT_GE(s.gcs_daemon(1).counters().self_heals.value(), 1u);
  ASSERT_TRUE(s.run_until_stable(sim::seconds(20.0)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(s.gcs_daemon(i).view_audit_clean()) << "server " << i;
  }
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
}

TEST(GcsSelfHeal, ReconfigStormConvergesUnderResyncBackoff) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  ASSERT_TRUE(s.reconfig_storm(0));
  // Three forced rediscoveries 200 ms apart; membership churn plus the
  // wackamole resync damping must still reconverge to exactly-once.
  ASSERT_TRUE(s.run_until_stable(sim::seconds(30.0)));
  s.run(sim::seconds(6.0));
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(s.gcs_daemon(i).view_audit_clean()) << "server " << i;
  }
}

TEST(GcsSelfHeal, ChaosHooksRequireARunningDaemon) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.crash_daemon(2);
  s.run(sim::seconds(1.0));
  EXPECT_FALSE(s.flip_view_id(2));
  EXPECT_FALSE(s.reconfig_storm(2));
}

}  // namespace
}  // namespace wam::gcs
