// chaos_campaign: randomized fault-injection campaign with invariant
// oracles (see docs/CHAOS.md).
//
//   chaos_campaign --seeds 100                 # seeds 1..100, both profiles
//   chaos_campaign --seed 42 --profile cluster # one seed, one profile
//   chaos_campaign --seed 42 --dsl             # print the schedule DSL
//   chaos_campaign --seed 42 --replay          # print the event timeline
//   chaos_campaign --seeds 100 --jobs 4        # 4 worker threads
//
// Exit status is non-zero iff any seed produced a Property 1/2 violation;
// each violating seed prints its violations, the shrunk schedule and the
// DSL replay artifact, so CI failures are immediately reproducible: save
// an artifact (it carries its `seed` line) and run it with scenario_runner,
// which replays it through the same executor and oracle. With --dsl or
// --replay, stdout carries only the artifacts / timelines and the report
// goes to stderr, so `--seed N --quiet --dsl > a.scn` is replayable as is.
//
// --jobs N fans the (seed, profile) list out over N threads; results are
// buffered and reported in seed order, so stdout is byte-identical to a
// sequential run (each seed builds its own simulation universe).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/parallel.hpp"

namespace {

struct CliOptions {
  std::uint64_t first_seed = 1;
  std::uint64_t num_seeds = 25;
  bool single_seed = false;
  bool cluster = true;
  bool router = true;
  bool print_dsl = false;
  bool print_timeline = false;
  bool quiet = false;
  int jobs = 1;
  wam::chaos::CampaignOptions campaign;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds N] [--seed S] [--profile cluster|router|both]\n"
      "          [--rounds R] [--servers N] [--vips K] [--os-faults]\n"
      "          [--state-faults] [--no-shrink] [--dsl] [--replay]\n"
      "          [--quiet] [--jobs N] [--shards N] [--no-shard-threads]\n",
      argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end && *end == '\0' && end != s;
}

void report(const wam::chaos::CampaignResult& r, const CliOptions& cli,
            std::FILE* info) {
  using wam::chaos::profile_name;
  if (r.passed()) {
    if (!cli.quiet) {
      std::fprintf(info, "seed %llu %s: OK (%zu actions, %zu checkpoints)\n",
                   static_cast<unsigned long long>(r.seed),
                   profile_name(r.profile), r.schedule.actions.size(),
                   r.schedule.checkpoints.size());
    }
  } else {
    std::fprintf(info, "seed %llu %s: %zu VIOLATION(S)\n",
                 static_cast<unsigned long long>(r.seed),
                 profile_name(r.profile), r.violations.size());
    for (const auto& v : r.violations) {
      std::fprintf(info, "  %s\n", wam::chaos::to_string(v).c_str());
    }
    if (!r.shrunk_actions.empty()) {
      std::fprintf(
          info, "  shrunk to %zu/%zu actions (%d replays); minimal schedule:\n",
          r.shrunk_actions.size(), r.schedule.actions.size(),
          r.shrink_evaluations);
      std::fprintf(info, "%s", r.shrunk_dsl.c_str());
    }
    std::fprintf(info, "  full replay artifact (scenario DSL):\n%s",
                 r.dsl.c_str());
  }
  if (cli.print_dsl) std::printf("%s", r.dsl.c_str());
  if (cli.print_timeline) std::printf("%s\n", r.timeline_json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t v = 0;
    if (std::strcmp(arg, "--seeds") == 0) {
      const char* a = next();
      if (!a || !parse_u64(a, cli.num_seeds) || cli.num_seeds == 0) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* a = next();
      if (!a || !parse_u64(a, cli.first_seed)) return usage(argv[0]);
      cli.single_seed = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      const char* a = next();
      if (!a) return usage(argv[0]);
      cli.cluster = std::strcmp(a, "router") != 0;
      cli.router = std::strcmp(a, "cluster") != 0;
      if (!cli.cluster && !cli.router) return usage(argv[0]);
    } else if (std::strcmp(arg, "--rounds") == 0) {
      const char* a = next();
      if (!a || !parse_u64(a, v) || v == 0) return usage(argv[0]);
      cli.campaign.generator.rounds = static_cast<int>(v);
    } else if (std::strcmp(arg, "--servers") == 0) {
      const char* a = next();
      if (!a || !parse_u64(a, v) || v < 2) return usage(argv[0]);
      cli.campaign.generator.num_servers = static_cast<int>(v);
    } else if (std::strcmp(arg, "--vips") == 0) {
      const char* a = next();
      if (!a || !parse_u64(a, v) || v == 0 || v > 100) return usage(argv[0]);
      cli.campaign.generator.num_vips = static_cast<int>(v);
    } else if (std::strcmp(arg, "--os-faults") == 0) {
      cli.campaign.generator.os_faults = true;
    } else if (std::strcmp(arg, "--state-faults") == 0) {
      // Transient state-corruption verbs + the ReconvergenceOracle
      // (cluster profile; router schedules do not generate them).
      cli.campaign.generator.state_faults = true;
    } else if (std::strcmp(arg, "--shards") == 0) {
      // Run cluster-profile seeds on N shards (byte-identical to the
      // default of 1; see docs/PARALLEL.md).
      const char* a = next();
      if (!a || !parse_u64(a, v) || v == 0 || v > 64) return usage(argv[0]);
      cli.campaign.shards = static_cast<int>(v);
    } else if (std::strcmp(arg, "--no-shard-threads") == 0) {
      cli.campaign.shard_threads = false;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      cli.campaign.shrink = false;
    } else if (std::strcmp(arg, "--dsl") == 0) {
      cli.print_dsl = true;
    } else if (std::strcmp(arg, "--replay") == 0) {
      cli.print_timeline = true;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* a = next();
      if (!a || !parse_u64(a, v) || v == 0 || v > 256) return usage(argv[0]);
      cli.jobs = static_cast<int>(v);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      cli.quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<wam::chaos::Profile> profiles;
  if (cli.cluster) profiles.push_back(wam::chaos::Profile::kCluster);
  if (cli.router) profiles.push_back(wam::chaos::Profile::kRouter);
  const std::uint64_t last_seed =
      cli.single_seed ? cli.first_seed : cli.first_seed + cli.num_seeds - 1;

  std::vector<wam::chaos::SeedJob> work;
  for (std::uint64_t seed = cli.first_seed; seed <= last_seed; ++seed) {
    for (auto profile : profiles) {
      auto opts = cli.campaign;
      if (profile == wam::chaos::Profile::kRouter &&
          cli.campaign.generator.num_servers > 4) {
        opts.generator.num_servers = 3;  // paper-sized router deployments
      }
      work.push_back({seed, profile, opts});
    }
  }

  // Results come back in job order whatever the thread count, so the
  // report below is byte-identical to a sequential run.
  wam::chaos::ParallelRunner runner(cli.jobs);
  auto results = runner.run(work);

  std::FILE* info = cli.print_dsl || cli.print_timeline ? stderr : stdout;
  int failures = 0;
  std::vector<double> recon;
  for (const auto& r : results) {
    report(r, cli, info);
    if (!r.passed()) ++failures;
    recon.insert(recon.end(), r.reconvergence_ms.begin(),
                 r.reconvergence_ms.end());
  }
  if (!recon.empty()) {
    // Injection-to-first-SelfHeal window per applied corruption
    // (--state-faults); the distribution CI and EXPERIMENTS.md track.
    std::sort(recon.begin(), recon.end());
    auto pct = [&](double p) {
      return recon[static_cast<std::size_t>(p * (recon.size() - 1))];
    };
    std::fprintf(
        info,
        "reconvergence: %zu sample(s), min %.0f ms, p50 %.0f ms, "
        "p90 %.0f ms, max %.0f ms\n",
        recon.size(), recon.front(), pct(0.5), pct(0.9), recon.back());
  }
  std::fprintf(info, "%zu run(s), %d with violations\n", results.size(),
               failures);
  return failures == 0 ? 0 : 1;
}
