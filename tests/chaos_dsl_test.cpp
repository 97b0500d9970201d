// The scenario DSL (chaos/dsl.hpp): parsing, exact round-trips of
// generated schedules, hand-written scenario runs, and chaos artifacts
// replaying through the campaign's own executor.
#include "chaos/dsl.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "chaos/campaign.hpp"

namespace wam::chaos {
namespace {

std::vector<Violation> run_text(const std::string& text, std::ostream& out,
                                std::string* timeline_json = nullptr) {
  return run_dsl(parse_dsl(text), out, timeline_json);
}

std::vector<std::string> texts(const std::vector<Violation>& vs) {
  std::vector<std::string> out;
  for (const auto& v : vs) out.push_back(to_string(v));
  return out;
}

// ------------------------------------------------------------- parsing ----

TEST(ScenarioParse, HeaderDirectives) {
  auto p = parse_dsl(
      "servers 5\nvips 7\ngcs default\nbalance 45\nseed 9\nrun 90\n");
  EXPECT_FALSE(p.chaos);
  EXPECT_EQ(p.schedule.num_servers, 5);
  EXPECT_EQ(p.world.num_servers, 5);
  EXPECT_EQ(p.schedule.num_vips, 7);
  EXPECT_EQ(p.world.num_vips, 7);
  EXPECT_EQ(sim::to_seconds(p.world.gcs.fault_detection_timeout), 5.0);
  EXPECT_EQ(sim::to_seconds(p.world.balance_timeout), 45.0);
  EXPECT_EQ(p.world.seed, 9u);
  EXPECT_EQ(sim::to_seconds(p.schedule.horizon), 90.0);
}

TEST(ScenarioParse, CommentsAndBlanksIgnored) {
  auto p = parse_dsl("# hello\n\n   \nservers 2 # trailing\n");
  EXPECT_EQ(p.schedule.num_servers, 2);
  EXPECT_TRUE(p.schedule.actions.empty());
}

TEST(ScenarioParse, Actions) {
  auto p = parse_dsl(
      "servers 4\n"
      "at 5 disconnect server2\n"
      "at 6 reconnect server2\n"
      "at 7 leave server3\n"
      "at 8 partition server1,server2 | server3,server4\n"
      "at 9 merge\n"
      "at 10 balance\n"
      "at 11 status server1\n"
      "at 12 coverage\n"
      "check 15\n"
      "check 17 guard\n"
      "run 20\n");
  const auto& actions = p.schedule.actions;
  ASSERT_EQ(actions.size(), 8u);
  EXPECT_EQ(actions[0].kind, FaultKind::kNicDown);
  EXPECT_EQ(actions[0].servers, (std::vector<int>{1}));
  EXPECT_EQ(actions[3].kind, FaultKind::kPartition);
  ASSERT_EQ(actions[3].groups.size(), 2u);
  EXPECT_EQ(actions[3].groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(actions[3].groups[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(actions[5].kind, FaultKind::kBalance);
  EXPECT_EQ(actions[6].kind, FaultKind::kStatus);
  ASSERT_EQ(p.schedule.checkpoints.size(), 2u);
  EXPECT_EQ(p.schedule.checkpoints[0],
            (Checkpoint{sim::seconds(15.0), false}));
  EXPECT_EQ(p.schedule.checkpoints[1],
            (Checkpoint{sim::seconds(17.0), true}));
}

TEST(ScenarioParse, DefaultRunPastLastAction) {
  auto p = parse_dsl("servers 2\nat 42 merge\n");
  EXPECT_EQ(sim::to_seconds(p.schedule.horizon), 52.0);
}

TEST(ScenarioParse, Errors) {
  for (const char* text : {
           "bogus 3\n",
           "servers 0\n",
           "servers 2\nat 5 disconnect server9\n",
           "servers 2\nat 5 explode server1\n",
           "servers 2\nat 5 partition server1\n",
           "servers 3\nat 5 partition server1 | server2\n",  // server3?
           "servers 2\nat 5 partition server1,server1 | server2\n",
           "servers 2\nat 5 disconnect notaserver\n",
           "servers 2\nat 5 merge server1\n",  // trailing operand
           "servers 2\nat 5 loss 1.5\n",
           "vips 2\nat 5 probe 2\n",
           "gcs sideways\n",
           "run -5\n",
           "run 1e3\n",
           "at 1.0000000001 merge\n",  // finer than a nanosecond
           "check 5 sometimes\n",
           "chaos mesh\n",
           "chaos cluster turbo\n",
           "chaos cluster\ngcs default\n",  // world is the campaign's
           "chaos cluster\nat 5 coverage\n",
           // One artifact per script, and a world sized before any action
           // is checked against it.
           "chaos cluster\nchaos router\n",
           "chaos cluster\nservers 2\nrun 5\nchaos cluster\n",
           "servers 4\nat 5 disconnect server4\nservers 2\n",
           "vips 8\nat 5 probe 7\nvips 2\n",
           "servers 2\nat 5 merge\nvips 2\n",
       }) {
    EXPECT_THROW((void)parse_dsl(text), std::invalid_argument) << text;
  }
}

// `chaos_campaign --seed 4 --dsl` prints a cluster and a router artifact
// back to back; the file holding both is not one script and must be
// rejected, not replayed against a world resized under its actions.
TEST(ScenarioParse, TwoArtifactFileIsRejected) {
  CampaignOptions opt;
  opt.shrink = false;
  const auto cluster = run_seed(4, Profile::kCluster, opt).dsl;
  const auto router = run_seed(4, Profile::kRouter, opt).dsl;
  EXPECT_NO_THROW((void)parse_dsl(cluster));
  EXPECT_NO_THROW((void)parse_dsl(router));
  EXPECT_THROW((void)parse_dsl(cluster + router), std::invalid_argument);
}

// Every millisecond in [0, 200 s] prints as "%.3f" and parses back to the
// exact nanosecond (reading 1.001 through a double gives 1.000999999).
TEST(ScenarioParse, MillisecondTimesAreExact) {
  EXPECT_EQ(parse_dsl("at 1.001 merge\n").schedule.actions[0].at,
            sim::nanoseconds(1'001'000'000));
  FaultSchedule s;
  for (std::int64_t ms = 0; ms <= 200'000; ++ms) {
    FaultAction a;
    a.at = sim::milliseconds(ms);
    s.actions.push_back(a);
  }
  s.horizon = sim::milliseconds(200'001);
  const auto parsed = parse_dsl(to_dsl(s)).schedule;
  ASSERT_EQ(parsed.actions.size(), s.actions.size());
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    ASSERT_EQ(parsed.actions[i].at, s.actions[i].at) << "ms " << i;
  }
  EXPECT_EQ(parsed.horizon, s.horizon);
  // Sub-millisecond times keep all nine digits.
  s.horizon = sim::nanoseconds(7'000'000'001);
  EXPECT_EQ(parse_dsl(to_dsl(s)).schedule.horizon, s.horizon);
}

// parse_dsl inverts to_dsl exactly — every field, times to the nanosecond —
// for every generator flavour.
TEST(ChaosSchedule, DslRoundTripsThroughScenarioParser) {
  struct Flavour {
    const char* name;
    bool router, os_faults, state_faults;
  };
  for (auto f : {Flavour{"cluster", false, false, false},
                 Flavour{"os-faults", false, true, false},
                 Flavour{"state-faults", false, false, true},
                 Flavour{"router", true, false, false}}) {
    GeneratorOptions opt;
    opt.os_faults = f.os_faults;
    opt.state_faults = f.state_faults;
    if (f.router) opt.num_servers = 3;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      sim::Rng rng(seed);
      const auto s = f.router ? generate_router_schedule(rng, opt)
                              : generate_cluster_schedule(rng, opt);
      const std::string dsl = to_dsl(s);
      const auto p = parse_dsl(dsl);
      SCOPED_TRACE(std::string(f.name) + " seed " + std::to_string(seed) +
                   "\n" + dsl);
      EXPECT_TRUE(p.chaos);
      EXPECT_EQ(p.schedule.num_servers, s.num_servers);
      EXPECT_EQ(p.schedule.num_vips, s.num_vips);
      EXPECT_EQ(p.schedule.router_profile, s.router_profile);
      EXPECT_EQ(p.schedule.os_faults, s.os_faults);
      EXPECT_EQ(p.schedule.state_faults, s.state_faults);
      EXPECT_EQ(p.schedule.horizon, s.horizon);
      ASSERT_EQ(p.schedule.actions.size(), s.actions.size());
      for (std::size_t i = 0; i < s.actions.size(); ++i) {
        EXPECT_TRUE(p.schedule.actions[i] == s.actions[i]) << "action " << i;
      }
      EXPECT_TRUE(p.schedule.checkpoints == s.checkpoints);
    }
  }
}

// ------------------------------------------------------------ replays ----

// A chaos artifact replays through execute_schedule itself: same world,
// same oracle, so the same violations and the same timeline bytes.
TEST(ChaosDsl, ArtifactReplayMatchesRunSeed) {
  struct Case {
    std::uint64_t seed;
    Profile profile;
    bool os_faults, state_faults;
  };
  for (auto c : {Case{4, Profile::kCluster, false, false},
                 Case{45, Profile::kCluster, false, false},
                 Case{63, Profile::kCluster, false, false},
                 Case{7, Profile::kCluster, false, true},
                 Case{11, Profile::kCluster, true, false},
                 Case{4, Profile::kRouter, false, false}}) {
    CampaignOptions opt;
    opt.generator.os_faults = c.os_faults;
    opt.generator.state_faults = c.state_faults;
    if (c.profile == Profile::kRouter) opt.generator.num_servers = 3;
    opt.shrink = false;
    const auto r = run_seed(c.seed, c.profile, opt);
    SCOPED_TRACE(r.dsl);
    std::ostringstream out;
    std::string timeline_json;
    const auto replay = run_text(r.dsl, out, &timeline_json);
    EXPECT_EQ(texts(replay), texts(r.violations));
    EXPECT_TRUE(timeline_json == r.timeline_json);
    EXPECT_NE(out.str().find("violations: " +
                             std::to_string(r.violations.size())),
              std::string::npos)
        << out.str();
  }
}

// ------------------------------------------------ hand-written scenarios ----

TEST(ScenarioRun, FaultAndRecoveryEndsConsistent) {
  std::ostringstream out;
  auto r = run_text(
      "servers 3\nvips 6\ngcs tuned\n"
      "at 3 disconnect server2\n"
      "at 10 reconnect server2\n"
      "at 18 balance\n"
      "check 24\n"
      "run 25\n",
      out);
  EXPECT_TRUE(r.empty()) << out.str();
  EXPECT_NE(out.str().find("violations: 0"), std::string::npos);
}

TEST(ScenarioRun, CoverageReportNamesOwners) {
  std::ostringstream out;
  auto r = run_text("servers 2\nvips 2\nat 3 coverage\nrun 6\n", out);
  EXPECT_TRUE(r.empty());
  EXPECT_NE(out.str().find("10.0.0.100 -> server"), std::string::npos);
}

TEST(ScenarioRun, LeaveShrinksReachableSet) {
  std::ostringstream out;
  auto r = run_text("servers 3\nvips 4\nat 3 leave server3\nrun 10\n", out);
  EXPECT_TRUE(r.empty()) << out.str();
}

// graceful_leave is a no-op on a daemon cut off from its GCS, exactly as
// ClusterFaultModel assumes: the server still participates after rejoining
// its GCS, so the oracle finds nothing.
TEST(ScenarioRun, LeaveAfterCrashIsANoOp) {
  std::ostringstream out;
  auto r = run_text(
      "servers 3\nvips 3\n"
      "at 3 crash server1\n"
      "at 4 leave server1\n"
      "at 5 restart server1\n"
      "check 20\n"
      "run 21\n",
      out);
  EXPECT_TRUE(r.empty()) << out.str();
}

TEST(ScenarioRun, StatusRendersState) {
  std::ostringstream out;
  (void)run_text("servers 2\nvips 2\nat 3 status server1\nrun 6\n", out);
  EXPECT_NE(out.str().find("state: RUN"), std::string::npos);
}

}  // namespace
}  // namespace wam::chaos
