// The chaos campaign driver: seed -> schedule -> execution -> verdict.
//
// run_seed() derives two decoupled RNG streams from the campaign seed
// (sim::Rng::stream), generates a fault schedule from the first and seeds
// the scenario's network fabric from the second, executes the schedule
// against a fresh ClusterScenario or RouterScenario, and runs the
// invariant oracle at every checkpoint. Everything is virtual-time
// deterministic: running the same seed twice yields byte-identical
// observability timelines (CampaignResult::timeline_json), which is what
// makes a violating seed a complete bug report.
//
// On violation the result carries the replay artifact — the schedule in
// the scenario DSL (chaos/dsl.hpp) with its fabric seed, the event
// timeline — and, unless disabled, a greedily shrunk action subsequence
// that still reproduces some violation (see chaos/shrink.hpp). run_dsl()
// replays an artifact through execute_schedule() itself, and runs
// hand-written scenarios through the same dispatcher and step loop.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/dsl.hpp"
#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"

namespace wam::chaos {

enum class Profile { kCluster, kRouter };

[[nodiscard]] const char* profile_name(Profile p);

struct CampaignOptions {
  GeneratorOptions generator;
  bool shrink = true;          // minimize the schedule on violation
  int shrink_max_evals = 120;  // each evaluation is a full simulated run
  /// Cluster-profile shard count, >= 1: N = 1 is the plain engine, N > 1
  /// the conservative-PDES engine with N shards. Verdicts and timelines
  /// are byte-identical across values. Router profile always runs on the
  /// plain engine.
  int shards = 1;
  bool shard_threads = true;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  Profile profile = Profile::kCluster;
  FaultSchedule schedule;
  std::vector<Violation> violations;
  /// Replay artifact: the schedule in DSL form plus its `seed` line.
  std::string dsl;
  /// Deterministic JSON export of the run's observability timeline.
  std::string timeline_json;
  /// On violation with shrinking enabled: the minimized action list (and
  /// its DSL rendering), plus the predicate runs it cost.
  std::vector<FaultAction> shrunk_actions;
  std::string shrunk_dsl;
  int shrink_evaluations = 0;
  /// State-fault runs: per applied corruption injection, milliseconds from
  /// injection to the target's first SelfHeal (the reconvergence window).
  std::vector<double> reconvergence_ms;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

/// Generate, execute and judge one seed. Deterministic.
[[nodiscard]] CampaignResult run_seed(std::uint64_t seed, Profile profile,
                                      const CampaignOptions& opt = {});

/// Execute `actions` against the schedule's checkpoints/horizon without
/// generating anything — the building block for replay and shrinking.
/// Returns the violations; fills `timeline_json` when non-null.
/// `shards`/`shard_threads` select the engine for cluster-profile
/// schedules (see CampaignOptions); router schedules ignore them.
/// `reconvergence_ms`, when non-null, collects per-injection reconvergence
/// windows (state-fault cluster schedules only).
[[nodiscard]] std::vector<Violation> execute_schedule(
    const FaultSchedule& schedule, const std::vector<FaultAction>& actions,
    std::uint64_t fabric_seed, std::string* timeline_json, int shards = 1,
    bool shard_threads = true,
    std::vector<double>* reconvergence_ms = nullptr);

/// Execute a parsed script (chaos/dsl.hpp), narrating to `out`, and
/// return the oracle's violations. A chaos artifact replays through
/// execute_schedule(); a hand-written scenario runs in its own world, is
/// judged at its `check` lines and once more at its end, and dumps its
/// last `trace_tail` frames when non-zero. Fills `timeline_json` when
/// non-null.
[[nodiscard]] std::vector<Violation> run_dsl(
    const DslScript& script, std::ostream& out,
    std::string* timeline_json = nullptr, std::size_t trace_tail = 0);

}  // namespace wam::chaos
