// The self-stabilization chaos campaign (--state-faults): schedule
// generation, the ReconvergenceOracle, the corruption × quarantine
// interaction, deterministic replay (also of a shrunk DSL artifact), and
// sequential vs sharded byte-identity. See docs/CHAOS.md §state-faults.
#include <gtest/gtest.h>

#include <sstream>

#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"

namespace wam::chaos {
namespace {

bool is_corruption(FaultKind k) {
  return k == FaultKind::kCorruptVipOwner || k == FaultKind::kCorruptIndex ||
         k == FaultKind::kStaleIncarnation || k == FaultKind::kFlipViewId ||
         k == FaultKind::kReconfigStorm;
}

// ---------------------------------------------------------- generation ----

TEST(StateFaultSchedule, CorruptionVerbsAreOptIn) {
  GeneratorOptions opt;
  sim::Rng rng(42);
  auto s = generate_cluster_schedule(rng, opt);
  EXPECT_FALSE(s.state_faults);
  for (const auto& a : s.actions) EXPECT_FALSE(is_corruption(a.kind));
}

TEST(StateFaultSchedule, GenerationIsDeterministicAndInjectsCorruption) {
  GeneratorOptions opt;
  opt.state_faults = true;
  sim::Rng r1(42), r2(42);
  auto a = generate_cluster_schedule(r1, opt);
  auto b = generate_cluster_schedule(r2, opt);
  EXPECT_EQ(to_dsl(a), to_dsl(b));
  EXPECT_TRUE(a.state_faults);
  bool any = false;
  for (const auto& x : a.actions) any |= is_corruption(x.kind);
  EXPECT_TRUE(any) << to_dsl(a);
}

TEST(StateFaultSchedule, ModelTreatsCorruptionAsNoOp) {
  // Transient corruption never changes the predicted steady state — that
  // is what makes shrunk subsequences sound.
  ClusterFaultModel m(3);
  FaultAction a;
  a.kind = FaultKind::kCorruptVipOwner;
  a.servers = {1};
  m.apply(a);
  EXPECT_TRUE(m.participant(1));
  EXPECT_FALSE(m.transient_active());
  EXPECT_EQ(m.components().size(), 1u);
}

// ------------------------------------------------------------ campaigns ----

TEST(StateFaultCampaign, ReplayIsByteIdentical) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto a = run_seed(7, Profile::kCluster, opt);
  auto b = run_seed(7, Profile::kCluster, opt);
  ASSERT_FALSE(a.timeline_json.empty());
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  EXPECT_EQ(a.dsl, b.dsl);
  EXPECT_TRUE(a.passed()) << to_string(a.violations.front());
}

TEST(StateFaultCampaign, PinnedSeedsStayClean) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  for (std::uint64_t seed : {1u, 7u, 11u}) {
    auto r = run_seed(seed, Profile::kCluster, opt);
    EXPECT_TRUE(r.passed())
        << "seed " << seed << ": " << to_string(r.violations.front());
  }
}

TEST(StateFaultCampaign, Seed45GhostMemberRegression) {
  // Seed 45 under --shards 4: a wackamole resync (fresh-incarnation
  // leave+join, sequenced but not yet delivered at the resyncing server's
  // own GCS daemon) raced a view install. The merge's per-daemon
  // authoritativeness filter preferred that daemon's stale table entry,
  // resurrecting the dead incarnation as a ghost group member nobody could
  // ever hear a STATE_MSG from — all five wackamoles wedged in GATHER for
  // the rest of the run. Fixed by re-applying the install's sync-cut
  // join/leave controls to the merged table (gcs::Daemon::install_view).
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  opt.shards = 4;
  auto r = run_seed(45, Profile::kCluster, opt);
  EXPECT_TRUE(r.passed()) << to_string(r.violations.front());
}

// Seed 73 injects a corrupt-vip-owner right after a stale-incarnation on
// the same server, and the corruption is never detected. The shrunk
// artifact carries the chaos world and the fabric seed, so replaying it
// must reproduce the violation.
TEST(StateFaultCampaign, Seed73ShrunkArtifactReplaysItsViolation) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  auto r = run_seed(73, Profile::kCluster, opt);
  ASSERT_FALSE(r.passed());
  ASSERT_FALSE(r.shrunk_dsl.empty());
  std::ostringstream out;
  auto replay = run_dsl(parse_dsl(r.shrunk_dsl), out);
  ASSERT_FALSE(replay.empty()) << out.str();
  EXPECT_EQ(replay.front().kind, Violation::Kind::kCorruptionUndetected)
      << out.str();
}

TEST(StateFaultCampaign, MeasuresReconvergenceWindows) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto r = run_seed(7, Profile::kCluster, opt);
  ASSERT_TRUE(r.passed()) << to_string(r.violations.front());
  ASSERT_FALSE(r.reconvergence_ms.empty());
  for (double ms : r.reconvergence_ms) {
    EXPECT_GT(ms, 0.0);
    // Detection within the 250 ms audit period, healing within the capped
    // resync backoff: anything past 10 s means the oracle lost track.
    EXPECT_LE(ms, 10'000.0);
  }
}

TEST(StateFaultCampaign, ShardedReplayIsByteIdentical) {
  // Same contract as ChaosShard.SeededRunMatchesSequentialEngineByteForByte:
  // shards=1 is the plain engine and the oracle, and every other shard
  // count must reproduce its corruption timeline byte-exact.
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  opt.shards = 1;
  const auto oracle = run_seed(7, Profile::kCluster, opt);
  ASSERT_FALSE(oracle.timeline_json.empty());
  for (int shards : {2, 4}) {
    opt.shards = shards;
    const auto sharded = run_seed(7, Profile::kCluster, opt);
    EXPECT_EQ(oracle.timeline_json, sharded.timeline_json) << shards;
    EXPECT_EQ(oracle.dsl, sharded.dsl) << shards;
    EXPECT_EQ(oracle.passed(), sharded.passed()) << shards;
    EXPECT_EQ(oracle.reconvergence_ms, sharded.reconvergence_ms) << shards;
  }
}

// ---------------------------------------- corruption x quarantine fence ----

// A member that is already OS-fault-quarantined gets a corruption on top;
// the self-fence heal path must compose with the existing quarantine
// instead of deadlocking coverage (the fence releases, peers take over,
// the cooldown probe un-fences after the OS heals).
TEST(StateFaultCampaign, CorruptionWhileOsQuarantinedStillReconverges) {
  FaultSchedule s;
  s.num_servers = 3;
  s.num_vips = 5;
  s.os_faults = true;
  s.state_faults = true;
  s.horizon = sim::seconds(45.0);

  auto act = [](double at_s, FaultKind kind, std::vector<int> servers,
                double value = 0.0) {
    FaultAction a;
    a.at = sim::seconds(at_s);
    a.kind = kind;
    a.servers = std::move(servers);
    a.value = value;
    return a;
  };
  // Sticky OS fault first: server2's next acquires fail, it fences and
  // quarantines whatever lands on it. Then corrupt its VIP table while
  // quarantined, heal the OS, and let the cooldown probe recover.
  s.actions.push_back(act(5.0, FaultKind::kOsFailSticky, {1}));
  s.actions.push_back(act(8.0, FaultKind::kCorruptVipOwner, {1}, 0.0));
  s.actions.push_back(act(18.0, FaultKind::kOsHeal, {1}));
  s.checkpoints.push_back({sim::seconds(38.0), false});
  s.checkpoints.push_back({sim::seconds(43.0), true});

  auto violations =
      execute_schedule(s, s.actions, /*fabric_seed=*/99, nullptr);
  EXPECT_TRUE(violations.empty()) << to_string(violations.front());
}

}  // namespace
}  // namespace wam::chaos
