// Availability timeline (extension): the operator's-eye view of a
// fail-over — aggregate request success rate over time, through a fault,
// for both Table 1 configurations. The dip's width is Figure 5's
// interruption; its depth is the failed server's share of the VIP set.
#include <cstdio>
#include <memory>

#include "load/generator.hpp"

#include "bench_common.hpp"

using namespace wam;

namespace {

void run_timeline(const char* label, const gcs::Config& config) {
  apps::ClusterOptions opt;
  opt.num_servers = 4;
  opt.num_vips = 8;
  opt.gcs = config;
  apps::ClusterScenario s(opt);
  s.start();
  s.run_until_stable(sim::seconds(30.0));
  s.wam(0).trigger_balance();
  s.run(sim::seconds(1.0));

  // Eight streams of one request per 10 ms: evenly spaced single-request
  // flows, spread uniformly over the VIP set.
  load::LoadOptions lo;
  for (int k = 0; k < opt.num_vips; ++k) lo.vips.push_back(s.vip(k));
  lo.flows_per_second = 800.0;
  lo.poisson = false;
  lo.zipf_skew = 0.0;
  lo.long_flow_fraction = 0.0;
  lo.stats_bucket = sim::seconds(1.0);
  auto owned = std::make_unique<load::LoadGenerator>(s.client_host(), lo);
  load::LoadGenerator& gen = *owned;
  s.attach_traffic(std::move(owned));

  s.run(sim::seconds(4.0));
  auto fault_at = sim::to_seconds(s.sched.now().time_since_epoch());
  s.disconnect_server(1);
  s.run(config.fault_detection_timeout + config.discovery_timeout +
        sim::seconds(8.0));
  gen.drain();
  s.run(sim::seconds(1.0));

  const load::FlowStats& stats = gen.stats();
  std::printf("\n%s (fault at t=%.1fs, 1 of 4 servers = 25%% of VIPs):\n",
              label, fault_at);
  std::printf("  %-8s %-10s %s\n", "t (s)", "avail", "");
  for (const auto& b : stats.timeline()) {
    double t = sim::to_seconds(b.start.time_since_epoch());
    int bars = static_cast<int>(b.availability() * 40);
    std::printf("  %-8.1f %-10.3f |%.*s\n", t, b.availability(), bars,
                "........................................");
  }
  std::printf("  overall availability: %.4f (%llu of %llu requests lost)\n",
              stats.availability(),
              static_cast<unsigned long long>(stats.lost()),
              static_cast<unsigned long long>(stats.offered()));
  std::printf(
      "  structured events: %zu recorded (views=%zu, acquires=%zu, "
      "faults=%zu)\n",
      s.timeline.size(), s.timeline.count(obs::EventType::kViewInstalled),
      s.timeline.count(obs::EventType::kVipAcquired),
      s.timeline.count(obs::EventType::kFaultInjected));
}

}  // namespace

int main() {
  bench::print_header(
      "Availability timeline through a fail-over (8 streams, 8 VIPs)",
      "dip width = Figure 5 interruption; dip depth = failed server's VIP "
      "share");
  run_timeline("tuned-spread", gcs::Config::spread_tuned());
  run_timeline("default-spread", gcs::Config::spread_default());
  return 0;
}
