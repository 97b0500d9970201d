// wam_e2e: one benchmark workload per process.
//
//   wam_e2e --workload W [--seed S] [--reps R] [--seconds T] [--warmup 1]
//           [--trace FILE] [--json FILE] [--smoke]
//
// Runs one discarded warm-up rep, then measured reps until at least R reps
// and T seconds of measured host time are done, then (with --trace) one
// traced rep whose spans, per-layer counts and unit-probe costs go to FILE.
// The warm-up rep is always run: it is the public-API oracle the measured
// reps are checked against, so --warmup accepts only 1.
// Prints one JSON document (or writes it to --json FILE) with every rep's
// host times, the virtual metrics, the exact per-layer counts and the
// outcome of every correctness check. bench/e2e/run.py drives it.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "obs/json.hpp"

namespace {

using e2e::Counts;
using e2e::median;
using e2e::RepResult;
using wam::obs::JsonWriter;

int usage() {
  std::fprintf(stderr,
               "usage: wam_e2e --workload W [--seed S] [--reps R] "
               "[--seconds T] [--warmup 1]\n"
               "               [--trace FILE] [--json FILE] [--smoke]\n"
               "workloads:");
  for (const auto& w : e2e::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double get(const Counts& c, const char* key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics, in report order, with their units.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.slab_peak", "count"},
    {"sim.shard.windows", "count"},
    {"sim.shard.posts", "count"},
    {"sim.shard.posts_per_window", "ratio"},
    {"net.frames_sent", "count"},
    {"net.frames_delivered", "count"},
    {"net.fanout", "ratio"},
    {"net.frames_dropped", "count"},
    {"net.udp_received", "count"},
    {"net.arp_sent", "count"},
    {"gcs.views_installed", "count"},
    {"gcs.discoveries_started", "count"},
    {"gcs.data_sequenced", "count"},
    {"gcs.data_delivered", "count"},
    {"gcs.retransmissions", "count"},
    {"gcs.nacks_sent", "count"},
    {"gcs.frames_per_view", "frames/view"},
    {"gcs.corruptions_detected", "count"},
    {"gcs.self_heals", "count"},
    {"wam.state_msgs_sent", "count"},
    {"wam.state_msgs_received", "count"},
    {"wam.stale_ratio", "ratio"},
    {"wam.reallocations", "count"},
    {"wam.balance_rounds", "count"},
    {"wam.acquires", "count"},
    {"wam.releases", "count"},
    {"wam.conflicts_dropped", "count"},
    {"wam.corruptions_detected", "count"},
    {"wam.self_heals", "count"},
    {"wam.resyncs", "count"},
    {"load.flows", "count"},
    {"load.offered", "count"},
    {"load.answered", "count"},
    {"load.retries", "count"},
    {"load.lost", "count"},
    {"load.retry_ratio", "ratio"},
    {"apps.probe_sent", "count"},
    {"apps.probe_answered", "count"},
    {"obs.timeline_events", "count"},
    {"obs.timeline_json_bytes", "bytes"},
    {"chaos.injections_applied", "count"},
    {"chaos.violations", "count"},
    {"failed_frac", "ratio"},
    {"blackhole_s", "s"},
    {"unit.sched_ns", "ns"},
    {"unit.fabric_rx_ns", "ns"},
    {"unit.gcs_codec_ns", "ns"},
    {"unit.realloc_ns", "ns"},
    {"unit.balance_ns", "ns"},
    {"unit.state_codec_ns", "ns"},
    {"est.sched_share", "share"},
    {"est.fabric_share", "share"},
    {"est.placement_share", "share"},
    {"est.state_codec_share", "share"},
    {"trace_overhead", "ratio"},
};

/// Per-layer metric values of the traced rep.
std::map<std::string, double> per_layer(
    const RepResult& t, const std::map<std::string, double>& probes,
    double trace_overhead) {
  const Counts& c = t.totals;
  std::map<std::string, double> m;
  for (const auto& [k, v] : c) m[k] = static_cast<double>(v);
  const double events = get(c, "sim.events");
  m["sim.ns_per_event"] = ratio(t.wall_s * 1e9, events);
  m["sim.shard.posts_per_window"] =
      ratio(get(c, "sim.shard.posts"), get(c, "sim.shard.windows"));
  m["net.fanout"] =
      ratio(get(c, "net.frames_delivered"), get(c, "net.frames_sent"));
  // Frames per installed view across the fault spans: the membership
  // protocol's message load per view change.
  double fault_frames = 0;
  double fault_views = 0;
  for (const auto& s : t.spans) {
    if (s.name.rfind("fault", 0) == 0 || s.name.rfind("rejoin", 0) == 0) {
      fault_frames += get(s.counts, "net.frames_sent");
      fault_views += get(s.counts, "gcs.views_installed");
    }
  }
  m["gcs.frames_per_view"] = ratio(fault_frames, fault_views);
  m["wam.stale_ratio"] = ratio(get(c, "wam.stale_msgs_ignored"),
                               get(c, "wam.state_msgs_received"));
  m["load.retry_ratio"] = ratio(get(c, "load.retries"), get(c, "load.offered"));
  // The service the workload lost: unanswered probes, lost requests or
  // violating chaos seeds, and (cluster workloads) dark time after rejoins.
  for (const char* k : {"failed_frac", "blackhole_s"}) {
    auto it = t.virt.find(k);
    if (it != t.virt.end()) m[k] = it->second;
  }
  for (const auto& [k, v] : probes) m[k] = v;
  // Estimates: probe cost x call count over the rep's wall time.
  const double wall_ns = t.wall_s * 1e9;
  auto probe = [&](const char* k) {
    auto it = probes.find(k);
    return it == probes.end() ? 0.0 : it->second;
  };
  m["est.sched_share"] = ratio(probe("unit.sched_ns") * events, wall_ns);
  m["est.fabric_share"] = ratio(
      probe("unit.fabric_rx_ns") * get(c, "net.frames_delivered"), wall_ns);
  m["est.placement_share"] =
      ratio(probe("unit.realloc_ns") * get(c, "wam.reallocations") +
                probe("unit.balance_ns") * get(c, "wam.balance_rounds"),
            wall_ns);
  m["est.state_codec_share"] = ratio(
      probe("unit.state_codec_ns") * get(c, "wam.state_msgs_received"),
      wall_ns);
  m["trace_overhead"] = trace_overhead;
  return m;
}

void write_counts(JsonWriter& w, const Counts& c) {
  w.begin_object();
  for (const auto& [k, v] : c) w.key(k).value(v);
  w.end_object();
}

void write_spans(JsonWriter& w, const RepResult& r, int rep_id) {
  const double origin = r.spans.empty() ? 0 : r.spans.front().start_s;
  w.begin_array();
  for (const auto& s : r.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    if (!s.detail.empty()) w.key("detail").value(s.detail);
    w.key("start_s").value(s.start_s - origin);
    w.key("end_s").value(s.end_s - origin);
    w.key("parent").value(s.parent);
    w.key("rep").value(rep_id);
    w.key("counts");
    write_counts(w, s.counts);
    w.end_object();
  }
  w.end_array();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config cfg;
  int reps = 5;
  double seconds = 0;
  std::string trace_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps") {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--warmup") {
      if (std::string(argv[++i]) != "1") return usage();
    } else if (arg == "--trace") {
      trace_path = argv[++i];
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }
  const e2e::Workload* wl = nullptr;
  for (const auto& w : e2e::workloads()) {
    if (cfg.workload == w.name) wl = &w;
  }
  if (wl == nullptr || reps < 1) return usage();

  RepResult warm;
  std::vector<RepResult> measured;
  RepResult traced;
  std::map<std::string, double> probes;
  std::vector<double> setups;
  double rss = 0;
  try {
    warm = wl->run(cfg, e2e::RepKind::kWarmup, false);
    double spent = 0;
    while (static_cast<int>(measured.size()) < reps || spent < seconds) {
      measured.push_back(wl->run(cfg, e2e::RepKind::kMeasured, false));
      spent += measured.back().setup_s + measured.back().wall_s;
    }
    rss = peak_rss_mb();
    for (const auto& r : measured) setups.push_back(r.setup_s);
    // Set-up is short; take extra samples so its median is steady.
    while (setups.size() < 9) setups.push_back(wl->setup_only(cfg));
    if (!trace_path.empty()) {
      traced = wl->run(cfg, e2e::RepKind::kMeasured, true);
      probes = e2e::run_unit_probes(traced.shape);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wam_e2e: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  // ---- correctness: per-rep checks plus cross-rep determinism ----
  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  const RepResult& first = measured.front();
  for (std::size_t i = 0; i < measured.size(); ++i) {
    RepResult& r = measured[i];
    if (r.fingerprint != first.fingerprint) {
      r.fail("virtual results or exact counts differ from rep 1");
    }
    if (r.trial_json != warm.trial_json) {
      r.fail("TrialResult differs from run_failover_trial's" +
             std::string(cfg.workload == "load_75k_sharded4"
                             ? " K = 1 oracle"
                             : ""));
    }
    attempted += r.ops;
    if (!r.failures.empty()) failed += r.ops;
    for (const auto& f : r.failures) {
      failures.push_back("rep " + std::to_string(i + 1) + ": " + f);
    }
  }
  for (const auto& f : warm.failures) failures.push_back("warm-up: " + f);
  if (warm.trial_json.empty() && warm.fingerprint != first.fingerprint) {
    failures.push_back("warm-up: results differ from the measured reps");
  }
  std::vector<double> walls;
  for (const auto& r : measured) walls.push_back(r.wall_s);
  const double wall_median = median(walls);
  double trace_overhead = 0;
  if (!trace_path.empty()) {
    for (const auto& f : traced.failures) failures.push_back("traced: " + f);
    if (traced.fingerprint != first.fingerprint) {
      failures.push_back("traced: results differ from the untraced reps");
    }
    if (traced.coverage < 0.95 || traced.coverage > 1.0 + 1e-9) {
      failures.push_back("traced: phase spans cover " +
                         std::to_string(traced.coverage) +
                         " of the rep's wall time (want >= 0.95)");
    }
    trace_overhead = ratio(traced.wall_s, wall_median) - 1.0;
  }
  const bool correct = failures.empty();

  JsonWriter w;
  w.begin_object();
  w.key("workload").value(cfg.workload);
  w.key("seed").value(cfg.seed);
  w.key("smoke").value(cfg.smoke);
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("reps").value(reps);
  w.key("failures").begin_array();
  for (const auto& f : failures) w.value(f);
  w.end_array();
  w.key("wall_s").begin_array();
  for (double x : walls) w.value(x);
  w.end_array();
  w.key("setup_s").begin_array();
  for (double x : setups) w.value(x);
  w.end_array();
  w.key("warmup_wall_s").value(warm.wall_s);
  w.key("peak_rss_mb").value(rss);
  w.key("virtual").begin_object();
  for (const auto& [k, v] : first.virt) w.key(k).value(v);
  w.end_object();
  w.key("counts");
  write_counts(w, first.totals);
  w.key("trial").value(first.trial_json);
  if (!trace_path.empty()) {
    const auto layers = per_layer(traced, probes, trace_overhead);
    w.key("per_layer").begin_object();
    for (const auto& lm : kLayerMetrics) {
      auto it = layers.find(lm.name);
      w.key(lm.name).begin_object();
      w.key("value").value(it == layers.end() ? 0.0 : it->second);
      w.key("unit").value(lm.unit);
      w.end_object();
    }
    w.end_object();
    w.key("traced_wall_s").value(traced.wall_s);
    w.key("span_coverage").value(traced.coverage);

    JsonWriter t;
    t.begin_object();
    t.key("workload").value(cfg.workload);
    t.key("seed").value(cfg.seed);
    t.key("rep").value(static_cast<int>(measured.size()) + 1);
    t.key("wall_s").value(traced.wall_s);
    t.key("setup_s").value(traced.setup_s);
    t.key("untraced_median_wall_s").value(wall_median);
    t.key("trace_overhead").value(trace_overhead);
    t.key("span_coverage").value(traced.coverage);
    t.key("shape").begin_object();
    t.key("members").value(traced.shape.members);
    t.key("vips").value(traced.shape.vips);
    t.key("pending_events")
        .value(static_cast<std::uint64_t>(traced.shape.pending_events));
    t.end_object();
    t.key("spans");
    write_spans(t, traced, static_cast<int>(measured.size()) + 1);
    t.end_object();
    if (!write_file(trace_path, t.str())) {
      std::fprintf(stderr, "wam_e2e: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  w.end_object();
  if (json_path.empty()) {
    std::printf("%s\n", w.str().c_str());
  } else if (!write_file(json_path, w.str())) {
    std::fprintf(stderr, "wam_e2e: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
