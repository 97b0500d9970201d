// The chaos campaign itself under test: deterministic replay, schedule
// generation, the fault models, the shrinker, the oracle, and a set of
// pinned regression seeds (seeds that once exposed real bugs stay in the
// suite forever — see docs/CHAOS.md).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "apps/cluster_scenario.hpp"
#include "chaos/campaign.hpp"
#include "chaos/dsl.hpp"
#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"

namespace wam::chaos {
namespace {

// ---------------------------------------------------------- determinism ----

TEST(ChaosCampaign, ClusterReplayIsByteIdentical) {
  auto a = run_seed(7, Profile::kCluster);
  auto b = run_seed(7, Profile::kCluster);
  ASSERT_FALSE(a.timeline_json.empty());
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  EXPECT_EQ(a.dsl, b.dsl);
  EXPECT_TRUE(a.passed()) << to_string(a.violations.front());
}

TEST(ChaosCampaign, RouterReplayIsByteIdentical) {
  CampaignOptions opt;
  opt.generator.num_servers = 3;
  auto a = run_seed(7, Profile::kRouter, opt);
  auto b = run_seed(7, Profile::kRouter, opt);
  ASSERT_FALSE(a.timeline_json.empty());
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  EXPECT_TRUE(a.passed()) << to_string(a.violations.front());
}

TEST(ChaosCampaign, DifferentSeedsDiffer) {
  auto a = run_seed(1, Profile::kCluster);
  auto b = run_seed(2, Profile::kCluster);
  EXPECT_NE(a.dsl, b.dsl);
}

// Seeds that exposed real bugs; they must stay green forever.
//
//   * 63 — heap-use-after-free in gcs::Daemon::reforward_pending(): the
//     view-change re-forward iterated pending_out_ while reentrant client
//     callbacks grew or shrank it.
//   * 4, 28, 55, 66 — sequenced-stream tail loss: a connectivity glitch
//     shorter than the fault-detection timeout dropped the LAST agreed
//     messages; with no later message there was no gap to NACK, and the
//     affected daemons stayed in GATHER forever (Property 2 violation).
TEST(ChaosCampaign, PinnedRegressionSeedsStayClean) {
  CampaignOptions opt;
  opt.shrink = false;
  for (std::uint64_t seed : {4u, 28u, 55u, 63u, 66u}) {
    auto r = run_seed(seed, Profile::kCluster, opt);
    EXPECT_TRUE(r.passed())
        << "seed " << seed << ": " << to_string(r.violations.front());
  }
}

// Seed 117 is a known failure (docs/CHAOS.md, "Known failures"): a
// balance races the duplicate-address probe and two VIPs stay uncovered
// past the guard checkpoint. Its shrunk artifact carries the chaos world
// and the fabric seed, so replaying it must reproduce the violation.
TEST(ChaosCampaign, Seed117ShrunkArtifactReplaysItsViolation) {
  auto r = run_seed(117, Profile::kCluster);
  ASSERT_FALSE(r.passed());
  ASSERT_FALSE(r.shrunk_dsl.empty());
  std::ostringstream out;
  auto replay = run_dsl(parse_dsl(r.shrunk_dsl), out);
  ASSERT_FALSE(replay.empty()) << out.str();
  EXPECT_EQ(replay.front().kind, Violation::Kind::kUncovered) << out.str();
}

TEST(ChaosCampaign, OsFaultReplayIsByteIdentical) {
  CampaignOptions opt;
  opt.generator.os_faults = true;
  opt.shrink = false;
  auto a = run_seed(11, Profile::kCluster, opt);
  auto b = run_seed(11, Profile::kCluster, opt);
  ASSERT_FALSE(a.timeline_json.empty());
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  EXPECT_EQ(a.dsl, b.dsl);
  EXPECT_TRUE(a.passed()) << to_string(a.violations.front());
}

// --------------------------------------------------- schedule generation ----

TEST(ChaosSchedule, GenerationIsDeterministic) {
  GeneratorOptions opt;
  sim::Rng r1(42), r2(42);
  auto a = generate_cluster_schedule(r1, opt);
  auto b = generate_cluster_schedule(r2, opt);
  EXPECT_EQ(to_dsl(a), to_dsl(b));
  ASSERT_FALSE(a.actions.empty());
  ASSERT_FALSE(a.checkpoints.empty());
}

TEST(ChaosSchedule, ActionsStrictlyIncreaseAndEndBeforeHorizon) {
  GeneratorOptions opt;
  sim::Rng rng(9);
  auto s = generate_cluster_schedule(rng, opt);
  for (std::size_t i = 1; i < s.actions.size(); ++i) {
    EXPECT_LT(s.actions[i - 1].at, s.actions[i].at);
  }
  EXPECT_LT(s.actions.back().at, s.horizon);
  EXPECT_LT(s.checkpoints.back().at, s.horizon);
}

// Enforcement-layer faults are opt-in: with the default generator options
// no os-fault verb may appear, so every pinned seed above keeps replaying
// byte-identically.
TEST(ChaosSchedule, OsFaultsAreOptIn) {
  GeneratorOptions opt;
  sim::Rng rng(42);
  auto s = generate_cluster_schedule(rng, opt);
  EXPECT_FALSE(s.os_faults);
  for (const auto& a : s.actions) {
    EXPECT_NE(a.kind, FaultKind::kOsFail);
    EXPECT_NE(a.kind, FaultKind::kOsFailSticky);
    EXPECT_NE(a.kind, FaultKind::kArpLose);
    EXPECT_NE(a.kind, FaultKind::kOsHeal);
  }
}

TEST(ChaosSchedule, OsFaultGenerationIsDeterministic) {
  GeneratorOptions opt;
  opt.os_faults = true;
  sim::Rng r1(42), r2(42);
  auto a = generate_cluster_schedule(r1, opt);
  auto b = generate_cluster_schedule(r2, opt);
  EXPECT_EQ(to_dsl(a), to_dsl(b));
  EXPECT_TRUE(a.os_faults);
  bool any_os = false;
  for (const auto& x : a.actions) {
    any_os |= x.kind == FaultKind::kOsFail ||
              x.kind == FaultKind::kOsFailSticky ||
              x.kind == FaultKind::kArpLose || x.kind == FaultKind::kOsHeal;
  }
  EXPECT_TRUE(any_os) << to_dsl(a);
}

// ---------------------------------------------------------- fault model ----

FaultAction act(FaultKind kind, std::vector<int> servers = {},
                std::vector<std::vector<int>> groups = {}, double value = 0) {
  FaultAction a;
  a.kind = kind;
  a.servers = std::move(servers);
  a.groups = std::move(groups);
  a.value = value;
  return a;
}

TEST(ChaosModel, ComponentsTrackPartitionAndNicFaults) {
  ClusterFaultModel m(5);
  EXPECT_EQ(m.components().size(), 1u);
  m.apply(act(FaultKind::kPartition, {}, {{0, 1}, {2, 3, 4}}));
  EXPECT_EQ(m.components().size(), 2u);
  // A NIC-down server becomes its own singleton component.
  m.apply(act(FaultKind::kNicDown, {3}));
  auto comps = m.components();
  EXPECT_EQ(comps.size(), 3u);
  bool singleton = false;
  for (const auto& c : comps) singleton |= (c == std::vector<int>{3});
  EXPECT_TRUE(singleton);
  m.apply(act(FaultKind::kNicUp, {3}));
  m.apply(act(FaultKind::kMerge));
  EXPECT_EQ(m.components().size(), 1u);
}

TEST(ChaosModel, ParticipationTracksCrashAndLeave) {
  ClusterFaultModel m(3);
  EXPECT_TRUE(m.participant(1));
  m.apply(act(FaultKind::kCrash, {1}));
  EXPECT_FALSE(m.participant(1));
  m.apply(act(FaultKind::kRestart, {1}));
  EXPECT_TRUE(m.participant(1));
  m.apply(act(FaultKind::kLeave, {2}));
  EXPECT_FALSE(m.participant(2));
  m.apply(act(FaultKind::kJoin, {2}));
  EXPECT_TRUE(m.participant(2));
}

TEST(ChaosModel, TransientsMarkCheckpointsUnsound) {
  ClusterFaultModel m(3);
  EXPECT_FALSE(m.transient_active());
  m.apply(act(FaultKind::kDrop, {0, 1}));
  EXPECT_TRUE(m.transient_active());
  m.apply(act(FaultKind::kUndrop));
  EXPECT_FALSE(m.transient_active());
  m.apply(act(FaultKind::kLoss, {}, {}, 0.2));
  EXPECT_TRUE(m.transient_active());
  m.apply(act(FaultKind::kLoss, {}, {}, 0.0));
  EXPECT_FALSE(m.transient_active());
}

TEST(ChaosModel, OsFaultKnobsTrackArmAndHeal) {
  ClusterFaultModel m(3);
  EXPECT_FALSE(m.os_prob(0));
  m.apply(act(FaultKind::kOsFail, {0}, {}, 0.3));
  EXPECT_TRUE(m.os_prob(0));
  // Probabilistic OS faults are transient: the generator heals them before
  // quiescence, so checkpoints with one active are unsound.
  EXPECT_TRUE(m.transient_active());
  m.apply(act(FaultKind::kOsFail, {0}, {}, 0.0));  // value 0 heals
  EXPECT_FALSE(m.os_prob(0));
  EXPECT_FALSE(m.transient_active());

  // Sticky and arp-lose faults persist through quiescence — the oracle
  // reasons about them instead of skipping the checkpoint.
  m.apply(act(FaultKind::kOsFailSticky, {1}));
  EXPECT_TRUE(m.os_sticky(1));
  EXPECT_FALSE(m.transient_active());
  m.apply(act(FaultKind::kArpLose, {2}));
  EXPECT_TRUE(m.arp_lose(2));
  EXPECT_FALSE(m.transient_active());

  m.apply(act(FaultKind::kOsHeal, {1}));
  EXPECT_FALSE(m.os_sticky(1));
  m.apply(act(FaultKind::kOsHeal, {2}));
  EXPECT_FALSE(m.arp_lose(2));
}

// Mirrors the executor's defensive no-ops: the shrinker may hand the model
// any subsequence, so e.g. a leave on a crashed server must not count.
TEST(ChaosModel, MirrorsExecutorNoOps) {
  ClusterFaultModel m(3);
  m.apply(act(FaultKind::kCrash, {1}));
  m.apply(act(FaultKind::kLeave, {1}));  // wam already down: no-op
  m.apply(act(FaultKind::kRestart, {1}));
  EXPECT_TRUE(m.participant(1)) << "leave on a crashed server must not stick";
}

// ------------------------------------------------------------- shrinker ----

TEST(ChaosShrink, IsolatesTheInteractingPair) {
  // Ten actions; the "bug" needs exactly the crash of 1 AND the leave of 2.
  std::vector<FaultAction> actions;
  for (int i = 0; i < 4; ++i) actions.push_back(act(FaultKind::kMerge));
  actions.push_back(act(FaultKind::kCrash, {1}));
  for (int i = 0; i < 3; ++i) actions.push_back(act(FaultKind::kMerge));
  actions.push_back(act(FaultKind::kLeave, {2}));
  actions.push_back(act(FaultKind::kMerge));
  auto fails = [](const std::vector<FaultAction>& c) {
    bool crash1 = false, leave2 = false;
    for (const auto& a : c) {
      crash1 |= a.kind == FaultKind::kCrash && a.servers == std::vector{1};
      leave2 |= a.kind == FaultKind::kLeave && a.servers == std::vector{2};
    }
    return crash1 && leave2;
  };
  auto r = shrink_schedule(actions, fails);
  ASSERT_EQ(r.actions.size(), 2u);
  EXPECT_EQ(r.actions[0].kind, FaultKind::kCrash);
  EXPECT_EQ(r.actions[1].kind, FaultKind::kLeave);
  EXPECT_GT(r.evaluations, 0);
  EXPECT_FALSE(r.exhausted);
}

TEST(ChaosShrink, ReturnsInputWhenEverythingIsNeeded) {
  std::vector<FaultAction> actions(4, act(FaultKind::kMerge));
  auto all_needed = [&](const std::vector<FaultAction>& c) {
    return c.size() == actions.size();
  };
  auto r = shrink_schedule(actions, all_needed);
  EXPECT_EQ(r.actions.size(), 4u);
}

TEST(ChaosShrink, RespectsEvaluationBudget) {
  std::vector<FaultAction> actions(64, act(FaultKind::kMerge));
  int calls = 0;
  auto fails = [&](const std::vector<FaultAction>& c) {
    ++calls;
    return !c.empty();
  };
  auto r = shrink_schedule(actions, fails, 5);
  EXPECT_LE(r.evaluations, 5);
  EXPECT_EQ(calls, r.evaluations);
  EXPECT_TRUE(r.exhausted);
}

// --------------------------------------------------------------- oracle ----

// The oracle must actually detect: silently withdraw a daemon WITHOUT
// telling the fault model, and the model-predicted participant shows up as
// a Property 2 violation.
TEST(ChaosOracle, DetectsAWithdrawnParticipant) {
  apps::ClusterOptions opt;
  opt.num_servers = 3;
  opt.num_vips = 5;
  opt.with_router = false;
  apps::ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));

  ClusterFaultModel model(3);
  std::vector<Violation> clean;
  check_cluster_invariants(s, model, false, clean);
  EXPECT_TRUE(clean.empty());

  s.wam(1).graceful_shutdown();
  s.run(sim::seconds(2.0));
  std::vector<Violation> out;
  check_cluster_invariants(s, model, true, out);
  ASSERT_FALSE(out.empty());
  bool not_run = false;
  for (const auto& v : out) {
    not_run |= v.kind == Violation::Kind::kNotRun;
    EXPECT_TRUE(v.persisted);
  }
  EXPECT_TRUE(not_run);
}

TEST(ChaosOracle, PairFilterReportsOnlyViolationsSpanningBothCheckpoints) {
  auto uncovered = [](const char* detail) {
    Violation v;
    v.kind = Violation::Kind::kUncovered;
    v.detail = detail;
    return v;
  };
  PairPersistenceFilter f;
  std::vector<Violation> out;

  // Pair 1: a hole at post-quiesce that healed by the guard — dropped.
  f.apply(false, {uncovered("10.0.0.104 covered 0x in {s1,s2}")}, out);
  f.apply(true, {}, out);
  EXPECT_TRUE(out.empty());

  // Pair 2: a hole that opens between the checkpoints — dropped too (the
  // next pair catches it if it is real).
  f.apply(false, {}, out);
  f.apply(true, {uncovered("10.0.0.104 covered 0x in {s1,s2}")}, out);
  EXPECT_TRUE(out.empty());

  // Pair 3: present at both checkpoints — reported once, at the guard.
  f.apply(false, {uncovered("10.0.0.104 covered 0x in {s1,s2}")}, out);
  f.apply(true, {uncovered("10.0.0.104 covered 0x in {s1,s2}")}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, Violation::Kind::kUncovered);
  out.clear();

  // Pair state resets between pairs: the same condition a whole phase
  // later must persist across ITS OWN pair to count.
  f.apply(false, {}, out);
  f.apply(true, {uncovered("10.0.0.104 covered 0x in {s1,s2}")}, out);
  EXPECT_TRUE(out.empty());

  // Property 2 is never deferred: a stuck daemon reports immediately.
  Violation stuck;
  stuck.kind = Violation::Kind::kNotRun;
  stuck.detail = "server2 state=GATHER for 12s";
  f.apply(false, {stuck}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, Violation::Kind::kNotRun);
}

TEST(ChaosOracle, SkipsCheckpointsWithActiveTransients) {
  apps::ClusterOptions opt;
  opt.num_servers = 3;
  opt.num_vips = 5;
  opt.with_router = false;
  apps::ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.wam(1).graceful_shutdown();
  s.run(sim::seconds(2.0));

  ClusterFaultModel model(3);
  model.apply(act(FaultKind::kDrop, {0, 2}));  // transient still active
  std::vector<Violation> out;
  check_cluster_invariants(s, model, false, out);
  EXPECT_TRUE(out.empty()) << "transient-active checkpoints must be skipped";
}

}  // namespace
}  // namespace wam::chaos
