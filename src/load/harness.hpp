// One-call heavy-traffic fail-over trial, shared by bench_load_failover
// and the determinism tests.
//
// A trial builds a cluster of `members` servers covering `vips` virtual
// addresses under one of four fail-over protocols, drives an open-loop
// LoadGenerator population against the whole VIP set, fails the server
// owning the hottest VIP mid-run, and reports request-weighted
// availability plus the p99/p999 response-time gap around the takeover.
//
//   * kWackamole — the paper's N-way protocol via ClusterScenario
//     (same-LAN client, like the baseline topologies).
//   * kVrrp / kHsrp — every VIP in a single virtual-router group; the
//     highest-priority member owns all of them until it fails.
//   * kFake — 1:1 active/standby: member 0 serves, member 1 probes and
//     takes over. Extra members run echo servers but cannot protect —
//     exactly the capability gap the paper calls out.
//
// Everything a trial reports derives from virtual time and a seeded RNG,
// so TrialResult::to_json() is byte-identical across same-seed runs (the
// pinning test relies on this).
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace wam::load {

enum class Protocol { kWackamole, kVrrp, kHsrp, kFake };

const char* protocol_name(Protocol p);

struct TrialOptions {
  Protocol protocol = Protocol::kWackamole;
  int members = 4;
  int vips = 16;
  double flows_per_second = 10000.0;
  double zipf_skew = 1.0;
  double long_flow_fraction = 0.05;
  /// Load running before the fault (also the before-side stats window).
  sim::Duration warmup = sim::seconds(3.0);
  /// Observation after the fault; must cover the slowest takeover (HSRP's
  /// 10 s hold time) plus recovery.
  sim::Duration after = sim::seconds(12.0);
  /// Before/after percentile window around the fault.
  sim::Duration window = sim::seconds(3.0);
  /// Shard count (conservative PDES), >= 1. N = 1 is the plain
  /// single-scheduler engine and the oracle the equivalence tests pin
  /// N > 1 runs against.
  int shards = 1;
  /// Worker threads for the sharded engine; false = serial round-robin
  /// with bit-identical results.
  bool shard_threads = true;
  /// Client hosts; the offered rate is split evenly across them. With
  /// shards > 1 clients live on shards 1..N-1, so generation parallelizes
  /// against the servers on shard 0.
  int clients = 1;
  std::uint64_t seed = 1;
};

struct TrialResult {
  Protocol protocol = Protocol::kWackamole;
  int members = 0;
  int vips = 0;
  double flows_per_second = 0;
  std::uint64_t seed = 0;

  std::uint64_t flows = 0;
  std::uint64_t offered = 0;
  std::uint64_t answered = 0;
  std::uint64_t lost = 0;
  std::uint64_t retries = 0;
  double availability = 1.0;
  /// Seconds of full-outage-equivalent at the trial's own offered rate.
  double effective_downtime_s = 0;
  double longest_gap_s = 0;
  // Response-time tails (milliseconds) in `window` around the fault.
  double p99_before_ms = 0;
  double p99_after_ms = 0;
  double p999_before_ms = 0;
  double p999_after_ms = 0;

  [[nodiscard]] double p99_gap_ms() const { return p99_after_ms - p99_before_ms; }
  [[nodiscard]] double p999_gap_ms() const {
    return p999_after_ms - p999_before_ms;
  }
  /// Deterministic JSON rendering (fixed field order, fixed precision, no
  /// wall-clock content) — the determinism pin compares these bytes.
  [[nodiscard]] std::string to_json() const;
};

/// Run one fail-over trial; purely virtual-time, deterministic per seed.
TrialResult run_failover_trial(const TrialOptions& options);

}  // namespace wam::load
