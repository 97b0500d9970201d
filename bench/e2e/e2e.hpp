// Shared types of the end-to-end benchmark binary (wam_e2e).
//
// It measures the simulator from outside: it calls only the
// library's public APIs, times each call with a steady clock, and reads the
// public counters before and after. Nothing here reaches into src/.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Exact per-layer work counts, keyed "layer.counter" (sim.events,
/// gcs.views_installed, ...). Every value is a pure function of the seed.
using Counts = std::map<std::string, std::uint64_t>;

/// Host time in seconds from an arbitrary steady origin.
double wall_now();

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// One timed phase. `counts` holds the per-layer deltas across the phase
/// (traced reps only).
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  // index into the rep's span list; -1 for the root
  Counts counts;
  std::string detail;  // e.g. the chaos seed a generate/execute span ran
  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

/// Records the phases of one rep as children of a root span "rep".
/// Phases timed with `setup` set count towards setup_s, the rest towards
/// wall_s. When a snapshot function is installed (traced reps), each phase
/// also records the count deltas across it.
class Recorder {
 public:
  Recorder();

  void set_snapshot(std::function<Counts()> snapshot) {
    snapshot_ = std::move(snapshot);
  }
  /// Time `body` as a child phase of the root.
  void phase(const std::string& name, const std::function<void()>& body,
             bool setup = false);
  /// Close the root span; call once, after the last phase.
  void finish();

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// The phase recorded last (its counts may be filled in by the caller).
  [[nodiscard]] Span& last() { return spans_.back(); }
  [[nodiscard]] double setup_s() const { return setup_s_; }
  [[nodiscard]] double wall_s() const { return wall_s_; }
  /// Sum of the phase spans over the root span (1.0 = fully covered).
  [[nodiscard]] double coverage() const;

 private:
  std::vector<Span> spans_;
  std::function<Counts()> snapshot_;
  double setup_s_ = 0;
  double wall_s_ = 0;
};

/// The world shape the unit probes reproduce: members, VIPs and the
/// scheduler's pending-event depth as observed during the rep.
struct Shape {
  int members = 0;
  int vips = 0;
  std::size_t pending_events = 0;
};

/// Everything one rep produced.
struct RepResult {
  std::vector<Span> spans;
  double setup_s = 0;
  double wall_s = 0;
  double coverage = 0;
  /// Exact per-layer counts at the end of the rep (every rep).
  Counts totals;
  /// Named virtual-time metrics (interruption_s, failed_frac, ...).
  std::map<std::string, double> virt;
  /// Deterministic rendering of the virtual results; equal across reps.
  std::string fingerprint;
  /// Checked operations (fault cycles, trials or chaos seeds); all of them
  /// count as failed when any correctness check of the rep fails.
  int ops = 0;
  std::vector<std::string> failures;
  Shape shape;
  /// Load workloads: TrialResult::to_json() of the trial.
  std::string trial_json;

  void fail(const std::string& why) { failures.push_back(why); }
};

enum class RepKind {
  kMeasured,
  /// The discarded warm-up rep. Load and chaos workloads run it through the
  /// one-call public API (run_failover_trial / run_seed), so the recomposed
  /// measured reps are checked against it.
  kWarmup,
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
};

struct Workload {
  const char* name;
  RepResult (*run)(const Config& cfg, RepKind kind, bool traced);
  /// Build the rep's world (or generate its inputs) and throw it away;
  /// returns the set-up seconds. Extra set-up samples for setup_s.
  double (*setup_only)(const Config& cfg);
};

/// The five workloads, in report order.
const std::vector<Workload>& workloads();

/// Per-call costs of the hot public functions at `shape` (ns per call).
std::map<std::string, double> run_unit_probes(const Shape& shape);

}  // namespace e2e
