// Test scaffolding for the Wackamole algorithm layer: a GcsCluster plus a
// Wackamole daemon per host, backed by RecordingIpManagers (no real network
// side effects — algorithm-level tests) unless a test opts into
// SimIpManager through ClusterScenario instead.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gcs_fixture.hpp"
#include "wackamole/control.hpp"
#include "wackamole/daemon.hpp"

namespace wam::testing {

struct WamCluster : GcsCluster {
  std::vector<std::unique_ptr<wackamole::RecordingIpManager>> ipmgrs;
  std::vector<std::unique_ptr<wackamole::Daemon>> wams;

  explicit WamCluster(int n, wackamole::Config wam_config,
                      gcs::Config gcs_config = gcs::Config::spread_tuned())
      : GcsCluster(n, gcs_config) {
    for (int i = 0; i < n; ++i) {
      auto ipmgr = std::make_unique<wackamole::RecordingIpManager>();
      auto wamd = std::make_unique<wackamole::Daemon>(
          sched, wam_config, *daemons[static_cast<std::size_t>(i)], *ipmgr,
          &log);
      ipmgrs.push_back(std::move(ipmgr));
      wams.push_back(std::move(wamd));
    }
  }

  void start_wam() {
    start_all();
    for (auto& w : wams) w->start();
  }

  /// Coverage of `group` among the given server indices.
  int holders(const std::string& group, const std::vector<int>& servers) {
    const auto id = wackamole::intern_group(group);
    int n = 0;
    for (int idx : servers) {
      if (ipmgrs[static_cast<std::size_t>(idx)]->holds(id)) ++n;
    }
    return n;
  }

  /// Property 1 check: every group covered exactly once within the
  /// component and every member in RUN.
  void expect_correctness(const std::vector<int>& component,
                          const char* where) {
    for (int idx : component) {
      EXPECT_EQ(wams[static_cast<std::size_t>(idx)]->state(),
                wackamole::WamState::kRun)
          << where << ": wam " << idx << " not in RUN";
    }
    for (const auto& name :
         wams[0]->config().group_names()) {
      EXPECT_EQ(holders(name, component), 1)
          << where << ": group " << name << " covered "
          << holders(name, component) << " times in component";
    }
  }
};

/// Standard 6-VIP web-cluster style config (mature from the start).
inline wackamole::Config test_config(int vips = 6) {
  std::vector<net::Ipv4Address> addrs;
  for (int k = 0; k < vips; ++k) {
    addrs.push_back(
        net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(100 + k)));
  }
  auto c = wackamole::Config::web_cluster(addrs);
  c.maturity_timeout = sim::kZero;
  c.balance_timeout = sim::kZero;  // tests arm balance explicitly
  return c;
}

}  // namespace wam::testing
