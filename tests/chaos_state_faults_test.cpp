// The self-stabilization chaos campaign (--state-faults): schedule
// generation, the ReconvergenceOracle, the corruption × quarantine
// interaction, deterministic replay (also of a shrunk DSL artifact), and
// sequential vs sharded byte-identity. See docs/CHAOS.md §state-faults.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

// The `checks` field of the first CorruptionDetected event that a resync's
// pre-wipe audit emitted, or "" if no resync audited a corruption.
std::string pre_resync_checks(const std::string& timeline_json) {
  const auto at = timeline_json.find("\"at\":\"pre-resync\"");
  if (at == std::string::npos) return "";
  const std::string key = "\"checks\":\"";
  const auto begin = timeline_json.rfind(key, at);
  if (begin == std::string::npos) return "";
  const auto first = begin + key.size();
  return timeline_json.substr(first, timeline_json.find('"', first) - first);
}

// Replays a shrunk artifact, kept as the campaign printed it, and returns
// the pre-resync audit's checks; fails the test on any violation.
std::string replay_pre_resync_checks(const char* artifact) {
  std::ostringstream out;
  std::string timeline_json;
  auto replay = run_dsl(parse_dsl(artifact), out, &timeline_json);
  EXPECT_TRUE(replay.empty()) << out.str();
  return pre_resync_checks(timeline_json);
}

// In both seeds below a stale-incarnation has scheduled a resync, and a
// table corruption lands on the same server before the resync runs. The
// resync's wipe used to erase it before any audit saw it
// (corruption-undetected). A resync now audits before it wipes. The
// stale view tag is found at every audit until the resync, so each test
// asserts that the pre-resync audit found the injected corruption itself.

// Seed 73: corrupt-vip-owner at 81.213 s; the resync falls due at 81.25 s,
// when the audit timer does too, and ran first.
TEST(StateFaultCampaign, Seed73ResyncAuditsBeforeItWipes) {
  const auto checks = replay_pre_resync_checks(
      "chaos cluster state-faults\n"
      "seed 13637774052945079357\n"
      "servers 5\n"
      "vips 7\n"
      "check 27.370\n"
      "check 32.370 guard\n"
      "check 48.781\n"
      "check 53.781 guard\n"
      "check 70.737\n"
      "check 75.737 guard\n"
      "at 80.725 stale-incarnation server1\n"
      "at 81.213 corrupt-vip-owner server1 0\n"
      "check 93.553\n"
      "check 98.553 guard\n"
      "run 100.053\n");
  EXPECT_NE(checks.find("owner-not-in-view"), std::string::npos) << checks;

  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto r = run_seed(73, Profile::kCluster, opt);
  EXPECT_TRUE(r.passed()) << to_string(r.violations.front());
}

// Seed 172: corrupt-index at 13.36 s; the resync falls due at 13.5 s, with
// the audit timer, and ran first. The seed escaped only after coalesced
// discovery rebroadcasts moved its timing.
TEST(StateFaultCampaign, Seed172ResyncAuditsBeforeItWipes) {
  const auto checks = replay_pre_resync_checks(
      "chaos cluster state-faults\n"
      "seed 13687142503821090395\n"
      "servers 5\n"
      "vips 7\n"
      "at 12.774 stale-incarnation server2\n"
      "at 13.360 corrupt-index server2 0\n"
      "check 25.867\n"
      "check 30.867 guard\n"
      "check 47.483\n"
      "check 52.483 guard\n"
      "check 69.171\n"
      "check 74.171 guard\n"
      "check 90.893\n"
      "check 95.893 guard\n"
      "run 97.393\n");
  EXPECT_NE(checks.find("table-index"), std::string::npos) << checks;
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
