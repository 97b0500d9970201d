// Scale sweep (extension): reconfiguration cost vs cluster and VIP-set
// size, beyond the paper's 12-server ceiling.
//
// Reports, per configuration: the fail-over interruption (should stay flat
// — timeout-dominated, Figure 5's message), the number of GCS messages the
// reconfiguration cost (sequenced data + views installed), the frames the
// fabric accepted for transmission and the scheduler events executed over
// the whole run, and the wall-clock time the whole simulated scenario took. After the table it prints the
// least-squares exponent k of wall ~ servers^k over the 10-VIP rows (all
// of them, and those from 16 servers up), so a super-quadratic membership
// cost shows up in the bench's own output.
//
// With --json FILE, also writes the rows as google-benchmark style JSON
// (name BM_ScaleFailover/<servers>/<vips>, real_time in ms, plus the exact
// `events` count) so tools/check_bench.py can gate regressions against
// bench/BENCH_scale.baseline.json: wall time loosely, events tightly.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wam;

namespace {

struct Row {
  int servers;
  int vips;
  double wall_ms;
  std::uint64_t events;  // scheduler events executed: exact per seed
};

/// Least-squares slope of log(wall) against log(servers).
double growth_exponent(const std::vector<Row>& rows) {
  const auto n = static_cast<double>(rows.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Row& r : rows) {
    double x = std::log(r.servers);
    double y = std::log(r.wall_ms);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"BM_ScaleFailover/%d/%d\", "
                 "\"run_type\": \"iteration\", \"iterations\": 1, "
                 "\"real_time\": %.3f, \"cpu_time\": %.3f, "
                 "\"time_unit\": \"ms\", \"events\": %llu}%s\n",
                 rows[i].servers, rows[i].vips, rows[i].wall_ms,
                 rows[i].wall_ms,
                 static_cast<unsigned long long>(rows[i].events),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::print_header(
      "Scale sweep: servers x VIPs vs interruption and protocol cost",
      "interruption stays timeout-dominated (flat); protocol cost grows "
      "with cluster size");

  std::vector<Row> rows;
  std::printf("\n  %-9s %-7s %-16s %-18s %-16s %-13s %-13s %-12s\n",
              "servers", "vips", "interruption (s)", "msgs sequenced",
              "views installed", "frames sent", "events", "wall (ms)");
  auto sweep = [&](int servers, int vips) {
    apps::ClusterOptions opt;
    opt.num_servers = servers;
    opt.num_vips = vips;
    opt.gcs = gcs::Config::spread_tuned();
    auto wall_start = std::chrono::steady_clock::now();
    apps::ClusterScenario s(opt);
    s.start();
    if (!s.run_until_stable(sim::seconds(120.0))) {
      std::printf("  %-9d %-7d DID NOT CONVERGE\n", servers, vips);
      return;
    }
    s.wam(0).trigger_balance();
    s.run(sim::seconds(1.0));
    s.start_probe(0);
    s.run(sim::seconds(1.0));
    int victim = s.owner_of(0);
    s.disconnect_server(victim);
    s.run(sim::seconds(10.0));
    auto wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
    auto gaps = s.probe().interruptions();
    double interruption =
        gaps.empty() ? -1.0 : sim::to_seconds(gaps.front().length());

    std::uint64_t sequenced = s.obs.registry.sum("gcs/*/data_sequenced");
    std::uint64_t views = s.obs.registry.sum("gcs/*/views_installed");
    std::uint64_t frames = s.fabric.counters().frames_sent;
    std::uint64_t events = s.sched.executed_events();
    std::printf("  %-9d %-7d %-16.2f %-18llu %-16llu %-13llu %-13llu "
                "%-12.1f\n",
                servers, vips, interruption,
                static_cast<unsigned long long>(sequenced),
                static_cast<unsigned long long>(views),
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(events), wall_ms);
    rows.push_back(Row{servers, vips, wall_ms, events});
  };

  for (int servers : {4, 8, 16, 24, 32}) {
    for (int vips : {10, 50}) sweep(servers, vips);
  }
  // The production-scale regime of the protocol fast path: one cluster
  // size, VIP counts swept past the placement and wire hot paths.
  for (int vips : {256, 1024, 4096}) sweep(64, vips);
  std::printf("\n");
  // Rows below 16 servers are dominated by per-run fixed costs, so the
  // fit from 16 servers up is the one that tracks membership cost.
  for (int from : {4, 16}) {
    std::vector<Row> fit;
    for (const Row& r : rows) {
      if (r.vips == 10 && r.servers >= from) fit.push_back(r);
    }
    if (fit.size() < 2) continue;
    std::printf("  growth: wall ~ servers^%.2f (least squares over the "
                "10-VIP rows, %d-%d servers)\n",
                growth_exponent(fit), fit.front().servers,
                fit.back().servers);
  }

  if (json_path != nullptr) write_json(json_path, rows);
  return 0;
}
