// Figure 4's N-way fail-over virtual router as a one-call scenario:
//
//                  Internet (external segment, 203.0.113.0/24)
//                                |
//                     [ virtual router: 203.0.113.1 ]
//               router1 (.2)              router2 (.3) ... routerN
//                     [ web VIP: 198.51.100.101 ]
//                                |
//              visible cluster (web segment, 198.51.100.0/24)
//                     [ db VIP: 192.168.0.1 ]
//                                |
//              private cluster (db segment, 192.168.0.0/24)
//
// Each physical router attaches to all three networks and runs GCS +
// Wackamole managing ONE indivisible VIP group holding the virtual
// router's address on every network — the whole set moves atomically on
// fail-over (Section 5.2). Hosts on each network use the virtual address
// as their default gateway; the ARP-share gossip keeps every Wackamole
// daemon aware of the hosts to notify on takeover.
#pragma once

#include <memory>
#include <vector>

#include "apps/echo.hpp"
#include "apps/probe_client.hpp"
#include "gcs/daemon.hpp"
#include "obs/observability.hpp"
#include "wackamole/control.hpp"
#include "wackamole/daemon.hpp"

namespace wam::apps {

struct RouterScenarioOptions {
  int num_routers = 2;
  gcs::Config gcs = gcs::Config::spread_tuned();
  sim::Duration balance_timeout = sim::kZero;  // one group: nothing to balance
  sim::Duration arp_share_interval = sim::seconds(5.0);
  /// Probe parameters (target filled in by start_probe).
  ProbeConfig probe;
  /// §5.2's NAIVE deployment: the router taking over must re-learn its
  /// dynamic routing tables (OSPF/RIP) before it can forward — "this
  /// usually takes around 30 seconds". Zero models the paper's recommended
  /// alternate setup where every fail-over router participates in dynamic
  /// routing continuously and can forward the instant Wackamole
  /// reconfigures.
  sim::Duration routing_convergence_delay = sim::kZero;
  std::uint64_t seed = 1;
};

class RouterScenario {
 public:
  explicit RouterScenario(RouterScenarioOptions options);

  void start();
  /// External client probes the web server through the virtual router.
  void start_probe();
  void run(sim::Duration d) { sched.run_for(d); }
  /// Same interface as ClusterScenario::advance_to so the chaos driver is
  /// scenario-generic. The router world always runs sequentially.
  void advance_to(sim::TimePoint t) { sched.run_until(t); }

  /// Fail / recover router i's host. No-op if it is already down / up.
  void fail_router(int i);
  void recover_router(int i);
  /// Graceful Wackamole shutdown on router i. No-op unless the daemon is
  /// running and connected to its GCS daemon.
  void graceful_leave(int i);
  /// Restart a Wackamole daemon after graceful_leave(). No-op if running.
  void rejoin(int i);
  /// Random loss burst on all three segments; p = 0 heals.
  void set_loss(double p);

  /// Index of the router currently holding the virtual-router group, -1 if
  /// none, -2 if held more than once (conflict).
  [[nodiscard]] int active_router() const;
  /// True iff router `i` holds ALL virtual addresses (group indivisibility).
  [[nodiscard]] bool holds_whole_group(int i) const;
  /// True iff router `i` holds none of them.
  [[nodiscard]] bool holds_nothing(int i) const;

  [[nodiscard]] wackamole::Daemon& wam(int i) {
    return *wams_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] net::Host& router_host(int i) {
    return *routers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] ProbeClient& probe() { return *probe_; }
  [[nodiscard]] net::Host& web_server() { return *web_server_; }
  [[nodiscard]] net::Host& db_server() { return *db_server_; }
  [[nodiscard]] net::Host& internet_client() { return *internet_; }
  [[nodiscard]] int num_routers() const { return options_.num_routers; }

  // The three virtual addresses of the indivisible group.
  [[nodiscard]] net::Ipv4Address external_vip() const {
    return net::Ipv4Address(203, 0, 113, 1);
  }
  [[nodiscard]] net::Ipv4Address web_vip() const {
    return net::Ipv4Address(198, 51, 100, 101);
  }
  [[nodiscard]] net::Ipv4Address db_vip() const {
    return net::Ipv4Address(192, 168, 0, 1);
  }

  sim::Scheduler sched;
  sim::Log log{sched};
  /// Shared observability context (see ClusterScenario for the scope
  /// conventions); declared before the bound components.
  obs::Observability obs;
  obs::EventTimeline& timeline = obs.bus;  // the structured events
  /// Seeded from RouterScenarioOptions::seed in the constructor.
  net::Fabric fabric;

 private:
  RouterScenarioOptions options_;
  net::SegmentId external_seg_;
  net::SegmentId web_seg_;
  net::SegmentId db_seg_;
  class ConvergingIpManager;
  std::vector<std::unique_ptr<net::Host>> routers_;
  std::vector<std::unique_ptr<gcs::Daemon>> gcs_;
  std::vector<std::unique_ptr<wackamole::SimIpManager>> ipmgrs_;
  std::vector<std::unique_ptr<wackamole::Daemon>> wams_;
  std::unique_ptr<net::Host> internet_;
  std::unique_ptr<net::Host> web_server_;
  std::unique_ptr<net::Host> db_server_;
  std::unique_ptr<EchoServer> web_echo_;
  std::unique_ptr<EchoServer> db_echo_;
  std::unique_ptr<ProbeClient> probe_;
};

}  // namespace wam::apps
