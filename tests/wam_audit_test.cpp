// Self-stabilization, wackamole side: the guarded VipTable (incremental
// checksum + member index), the StateAuditor sweep, and the daemon's heal
// tiers — in-place index rebuild, fence of an owner no view contained, and
// a full resync from peers' STATE_MSGs — under injected transient
// corruption (see docs/CHAOS.md §state-faults).
#include "wackamole/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "apps/cluster_scenario.hpp"
#include "wackamole/daemon.hpp"
#include "wackamole/vip_table.hpp"

namespace wam::wackamole {
namespace {

gcs::MemberId member(int last, std::uint32_t client) {
  return {net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(last)), client,
          "s" + std::to_string(last)};
}

// ------------------------------------------------------- guarded table ----

TEST(VipTableGuard, ChecksumAndIndexTrackEveryMutation) {
  VipTable t;
  EXPECT_EQ(t.checksum(), 0u);
  t.set_owner("vip0", member(1, 1));
  t.set_owner("vip1", member(2, 2));
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_TRUE(t.verify_index());
  t.set_owner("vip0", member(2, 2));  // overwrite moves the index entry
  t.clear_owner("vip1");
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_TRUE(t.verify_index());
  t.clear();
  EXPECT_EQ(t.checksum(), 0u);
  EXPECT_TRUE(t.verify_checksum());
}

TEST(VipTableGuard, StrayWriteFlipsTheChecksum) {
  VipTable t;
  t.set_owner("vip0", member(1, 1));
  t.set_owner("vip1", member(2, 2));
  VipTable grown = t;
  t.chaos_set_owner_unchecked(intern_group("vip0"), member(9, 9));
  EXPECT_FALSE(t.verify_checksum());
  EXPECT_FALSE(t.verify_index());  // vip0 is still indexed under s1
  // The owner map is the recovery root: rebuild() recomputes the derived
  // state from it, it does not guess the pre-corruption owner back.
  t.rebuild();
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_TRUE(t.verify_index());
  ASSERT_TRUE(t.owner("vip0").has_value());
  EXPECT_EQ(t.owner("vip0")->daemon, member(9, 9).daemon);
  EXPECT_EQ(t.load_of(member(9, 9)), 1u);
  EXPECT_EQ(t.load_of(member(1, 1)), 0u);

  // A stray write into a never-owned slot adds an unindexed entry.
  grown.chaos_set_owner_unchecked(intern_group("vip2"), member(1, 1));
  EXPECT_EQ(grown.size(), 3u);
  EXPECT_FALSE(grown.verify_checksum());
  EXPECT_FALSE(grown.verify_index());
  grown.rebuild();
  EXPECT_TRUE(grown.verify_checksum());
  EXPECT_TRUE(grown.verify_index());
  EXPECT_EQ(grown.load_of(member(1, 1)), 2u);
}

TEST(VipTableGuard, IndexDesyncIsDetectedSeparatelyFromTheChecksum) {
  VipTable t;
  t.set_owner("vip0", member(1, 1));
  // Dropping the indexed entry leaves owners_ (and its checksum) intact —
  // only verify_index() can see this class of drift.
  t.chaos_corrupt_index_entry(intern_group("vip0"), member(9, 9));
  EXPECT_TRUE(t.verify_checksum());
  EXPECT_FALSE(t.verify_index());
  EXPECT_NE(t.load_of(member(1, 1)), 1u);
  t.rebuild();
  EXPECT_TRUE(t.verify_index());
  EXPECT_EQ(t.load_of(member(1, 1)), 1u);
}

TEST(VipTableGuard, PhantomIndexEntryIsDetected) {
  VipTable t;
  t.set_owner("vip0", member(1, 1));
  // A never-owned group id: the backdoor inserts a phantom entry.
  t.chaos_corrupt_index_entry(intern_group("vip-phantom"), member(9, 9));
  EXPECT_FALSE(t.verify_index());
  t.rebuild();
  EXPECT_TRUE(t.verify_index());
  EXPECT_EQ(t.load_of(member(9, 9)), 0u);
}

// ------------------------------------------------------------- auditor ----

apps::ClusterOptions small_cluster() {
  apps::ClusterOptions opt;
  opt.num_servers = 3;
  opt.num_vips = 5;
  opt.with_router = false;
  return opt;
}

// Campaign-speed heal timings (resync after 500 ms, quick quarantine
// probe-back); audits run in every cluster.
apps::ClusterOptions audited_cluster() {
  auto opt = small_cluster();
  opt.resync_delay = sim::milliseconds(500);
  opt.resync_backoff_max = sim::seconds(4.0);
  opt.quarantine_cooldown = sim::seconds(5.0);
  return opt;
}

TEST(StateAudit, CleanClusterHasNoFindings) {
  apps::ClusterScenario s(small_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(StateAuditor::audit(s.wam(i)).empty()) << "server " << i;
  }
}

TEST(StateAudit, StrayOwnerWriteYieldsChecksumAndViewFindings) {
  // The findings are read right after the injection, before any audit
  // point can heal it.
  apps::ClusterScenario s(small_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  ASSERT_TRUE(s.corrupt_vip_owner(0, 0));
  auto findings = StateAuditor::audit(s.wam(0));
  ASSERT_FALSE(findings.empty());
  bool checksum = false, not_in_view = false;
  for (const auto& f : findings) {
    checksum |= f.check == AuditCheck::kTableChecksum;
    not_in_view |= f.check == AuditCheck::kOwnerNotInView;
  }
  EXPECT_TRUE(checksum);
  EXPECT_TRUE(not_in_view);
}

TEST(StateAudit, ViewTagCorruptionIsAFinding) {
  apps::ClusterScenario s(small_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  ASSERT_TRUE(s.stale_incarnation(2));
  auto findings = StateAuditor::audit(s.wam(2));
  ASSERT_FALSE(findings.empty());
  bool view_tag = false;
  for (const auto& f : findings) view_tag |= f.check == AuditCheck::kViewTag;
  EXPECT_TRUE(view_tag);
}

TEST(StateAudit, InjectionRequiresARunningConnectedDaemon) {
  apps::ClusterScenario s(small_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.wam(1).graceful_shutdown();
  s.run(sim::seconds(1.0));
  EXPECT_FALSE(s.corrupt_vip_owner(1, 0));
  EXPECT_FALSE(s.corrupt_index(1, 0));
  EXPECT_FALSE(s.stale_incarnation(1));
}

// ---------------------------------------------------------- heal tiers ----

TEST(SelfHeal, FenceHealsAnOwnerNoViewContained) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  ASSERT_TRUE(s.corrupt_vip_owner(1, 2));
  s.run(sim::seconds(2.0));
  EXPECT_GE(s.wam(1).counters().corruptions_detected.value(), 1u);
  EXPECT_GE(s.wam(1).counters().self_heals.value(), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(StateAuditor::audit(s.wam(i)).empty()) << "server " << i;
  }
  // Past the quarantine cooldown the fenced group is probed back in and
  // Property 1 holds again.
  s.run(sim::seconds(10.0));
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
}

TEST(SelfHeal, IndexDesyncRebuildsInPlaceWithoutAResync) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  const auto resyncs0 = s.wam(0).counters().resyncs.value();
  ASSERT_TRUE(s.corrupt_index(0, 1));
  s.run(sim::seconds(1.0));
  EXPECT_GE(s.wam(0).counters().corruptions_detected.value(), 1u);
  EXPECT_GE(s.wam(0).counters().self_heals.value(), 1u);
  EXPECT_TRUE(StateAuditor::audit(s.wam(0)).empty());
  // Derived-state drift needs no help from peers.
  EXPECT_EQ(s.wam(0).counters().resyncs.value(), resyncs0);
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
}

TEST(SelfHeal, StaleIncarnationResyncsFromPeers) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  ASSERT_TRUE(s.stale_incarnation(2));
  s.run(sim::seconds(4.0));
  EXPECT_GE(s.wam(2).counters().corruptions_detected.value(), 1u);
  EXPECT_GE(s.wam(2).counters().resyncs.value(), 1u);
  ASSERT_TRUE(s.run_until_stable(sim::seconds(20.0)));
  EXPECT_TRUE(StateAuditor::audit(s.wam(2)).empty());
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
}

TEST(SelfHeal, RepeatedCorruptionKeepsHealing) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(s.corrupt_vip_owner(0, round)) << round;
    s.run(sim::seconds(8.0));
    EXPECT_TRUE(StateAuditor::audit(s.wam(0)).empty()) << round;
  }
  ASSERT_TRUE(s.run_until_stable(sim::seconds(20.0)));
  s.run(sim::seconds(6.0));  // let the last quarantine cool down
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
  EXPECT_GE(s.wam(0).counters().corruptions_detected.value(), 3u);
}

TEST(SelfHeal, ResyncBackoffDoublesToTheCapAndResetsAfterAQuietCap) {
  apps::ClusterScenario s(audited_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  auto& w = s.wam(2);

  // Corrupt s3's view tag once it is back in RUN, and return the delay from
  // the first detection to the resync that heals it.
  auto corrupt_and_time_resync = [&]() -> double {
    auto deadline = s.sched.now() + sim::seconds(10.0);
    while (w.state() != WamState::kRun && s.sched.now() < deadline) {
      s.run(sim::milliseconds(10));
    }
    const auto t0 = s.sched.now();
    if (!s.stale_incarnation(2)) return -1.0;
    const auto resyncs = w.counters().resyncs.value();
    while (w.counters().resyncs.value() == resyncs &&
           s.sched.now() < t0 + sim::seconds(10.0)) {
      s.run(sim::milliseconds(10));
    }
    std::optional<sim::TimePoint> detected;
    for (const auto& e : s.timeline.events()) {
      if (e.time < t0 || e.source != w.obs_scope()) continue;
      if (!detected && e.type == obs::EventType::kCorruptionDetected) {
        detected = e.time;
      }
      const auto action = e.field("action");
      if (detected && e.type == obs::EventType::kSelfHeal && action &&
          *action == "resync") {
        return sim::to_millis(e.time - *detected);
      }
    }
    return -1.0;
  };

  // Back to back (each corruption lands well within a cap period of the
  // last resync): the delay doubles from resync_delay up to the cap.
  std::vector<double> delays;
  for (int round = 0; round < 5; ++round) {
    delays.push_back(corrupt_and_time_resync());
  }
  EXPECT_EQ(delays, (std::vector<double>{500.0, 1000.0, 2000.0, 4000.0,
                                         4000.0}));

  // Quiet for more than a cap period: a clean timer sweep resets the
  // backoff, and the next corruption gets the base delay again.
  ASSERT_TRUE(s.run_until_stable(sim::seconds(20.0)));
  s.run(sim::seconds(5.0));
  EXPECT_EQ(corrupt_and_time_resync(), 500.0);
}

TEST(SelfHeal, DefaultClusterRebuildsADesyncedIndexWithinOnePeriod) {
  // No option turns audits on: every cluster runs them.
  apps::ClusterScenario s(small_cluster());
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  const auto resyncs0 = s.wam(0).counters().resyncs.value();
  ASSERT_TRUE(s.corrupt_index(0, 0));
  s.run(gcs::kAuditPeriod);
  EXPECT_EQ(s.wam(0).counters().corruptions_detected.value(), 1u);
  EXPECT_EQ(s.wam(0).counters().self_heals.value(), 1u);
  EXPECT_EQ(s.wam(0).counters().resyncs.value(), resyncs0);
  EXPECT_TRUE(StateAuditor::audit(s.wam(0)).empty());
}

TEST(SelfHeal, StrayWriteInTheLastBlockIsSeenWithinOneRoundOfBlocks) {
  // 200 groups are four blocks of the name-sorted layout; the stray write
  // lands in the last one, so the bounded check reaches it within
  // ceil(200 / 64) = 4 audit points whatever block it starts from.
  auto opt = small_cluster();
  opt.num_vips = 200;
  apps::ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(20.0)));
  auto& w = s.wam(0);
  ASSERT_EQ(w.table().blocks(), 4u);
  const auto& groups = w.config().vip_groups;
  std::vector<std::string> names;
  for (const auto& g : groups) names.push_back(g.name);
  std::sort(names.begin(), names.end());
  int index = 0;
  while (groups[static_cast<std::size_t>(index)].name != names.back()) ++index;
  ASSERT_TRUE(s.corrupt_vip_owner(0, index));
  s.run(4 * gcs::kAuditPeriod);
  EXPECT_GE(w.counters().corruptions_detected.value(), 1u);
  EXPECT_GE(w.counters().self_heals.value(), 1u);
  EXPECT_TRUE(StateAuditor::audit(w).empty());
}

}  // namespace
}  // namespace wam::wackamole
