// Figure 3's web-cluster deployment as a one-call scenario:
//
//   client --- external LAN --- router --- cluster LAN --- N servers
//
// Every server runs a GCS daemon, a Wackamole daemon managing K virtual
// addresses (one VIP group each, web-cluster style), and the UDP echo
// server of Section 6. The client probes one VIP through the router at the
// paper's 10 ms interval. Fault injectors mirror the paper's experiments:
// interface disconnection, graceful leave, partitions and merges.
#pragma once

#include <memory>
#include <vector>

#include "apps/echo.hpp"
#include "apps/probe_client.hpp"
#include "gcs/daemon.hpp"
#include "net/router.hpp"
#include "obs/observability.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "wackamole/control.hpp"
#include "wackamole/daemon.hpp"

namespace wam::apps {

/// The VIP layout every protocol serves: 10.0.0.(100+k) up to 100 VIPs
/// (the historical layout pinned by chaos replay seeds). Beyond that the
/// LAN is a /16 and VIP k is 10.0.(16 + k/256).(k % 256), clear of the
/// servers (10.0.0.x) and the infrastructure block (10.0.255.x).
[[nodiscard]] net::Ipv4Address vip_address(int index, int num_vips);
/// Load client `i` on the servers' LAN: host .253 - i, in the 10.0.255.x
/// block when the LAN is wide (> 100 VIPs), else in 10.0.0.x.
[[nodiscard]] net::Ipv4Address lan_client_address(int i, bool wide);
/// Shard of load client `i`: protocol work keeps shard 0, so clients go
/// round-robin over shards 1..shards-1 (shard 0 when unsharded).
[[nodiscard]] int client_shard(int i, int shards);

struct ClusterOptions {
  int num_servers = 3;
  int num_vips = 10;  // the paper's experiments maintain 10 VIPs
  gcs::Config gcs = gcs::Config::spread_tuned();
  sim::Duration balance_timeout = sim::seconds(60.0);
  sim::Duration maturity_timeout = sim::kZero;  // 0 = start mature
  /// Probe parameters (target is filled in by start_probe from the VIP
  /// index); defaults are the paper's 10 ms / port 9000 methodology.
  ProbeConfig probe;
  bool with_router = true;  // client reaches VIPs through a router
  /// Gratuitous-ARP refresh period (Config::announce_interval). Zero keeps
  /// the default (disabled); chaos campaigns with OS faults enable it so
  /// quarantine cooldown probes have live announce paths to exercise.
  sim::Duration announce_interval = sim::kZero;
  /// Self-fence cooldown before a daemon re-probes its enforcement layer.
  sim::Duration quarantine_cooldown = sim::seconds(30.0);
  /// Wackamole self-stabilization knobs (Config::audit_interval & co);
  /// zero keeps auditing off so historical seeds replay byte-identically.
  /// GCS-side view auditing is configured via `gcs.audit_interval`.
  sim::Duration audit_interval = sim::kZero;
  sim::Duration resync_delay = sim::seconds(1.0);
  sim::Duration resync_backoff_max = sim::seconds(30.0);
  /// Shard count (conservative PDES, sim/shard.hpp), >= 1. N = 1 is the
  /// plain single-scheduler engine and the oracle the equivalence tests
  /// compare N > 1 runs against; N > 1 builds a ShardSet with N shards.
  /// Every N gives the same bytes for the same seed.
  int shards = 1;
  /// Worker threads for the sharded engine; false = serial round-robin on
  /// the calling thread with bit-identical results (TSan-friendly
  /// reference, and faster on single-core boxes).
  bool shard_threads = true;
  /// Client hosts (traffic injection points). All protocol work lives on
  /// shard 0; client i lands on shard 1 + (i % (shards - 1)) when
  /// shards > 1, so load generation runs concurrently with the servers.
  int load_clients = 1;
  std::uint64_t seed = 1;
};

class ClusterScenario {
 public:
  explicit ClusterScenario(ClusterOptions options);

  /// Start GCS daemons, Wackamole daemons and echo servers.
  void start();
  /// Start the probe client against VIP index `vip_index` (a TrafficSource
  /// built from ClusterOptions::probe, kept accessible via probe()).
  void start_probe(int vip_index = 0);
  /// Attach an arbitrary traffic source (the scenario takes ownership and
  /// starts it). The open-loop load harness plugs in here; so can extra
  /// probes or workloads — traffic_report() aggregates them all.
  TrafficSource& attach_traffic(std::unique_ptr<TrafficSource> source);
  void run(sim::Duration d) { advance_to(sched.now() + d); }
  /// Advance the whole world to `t` — every shard when the sharded engine
  /// is on (folding fabric counters at the quiesce point), plain
  /// sched.run_until otherwise. All drivers (chaos, harness, tests) go
  /// through here so one scenario API covers both engines.
  void advance_to(sim::TimePoint t);
  /// Run until every running Wackamole daemon reports RUN or `limit` passes.
  bool run_until_stable(sim::Duration limit);

  // ---- fault injection (the paper's §6 experiment and beyond) ----
  /// "Disconnecting the interface through which Spread, Wackamole and the
  /// experimental server access the network."
  void disconnect_server(int i);
  void reconnect_server(int i);
  /// Graceful Wackamole shutdown on server i. No-op unless the daemon is
  /// running and connected to its GCS daemon.
  void graceful_leave(int i);
  void partition(const std::vector<std::vector<int>>& groups);
  void merge();
  /// Crash the GCS daemon on server i: the local Wackamole daemon loses
  /// its GCS, releases every virtual interface (§4.2) and starts a
  /// reconnect loop; peers see a membership fault. No-op if already down.
  void crash_daemon(int i);
  /// Restart a crashed GCS daemon; the local Wackamole daemon reconnects
  /// within its reconnect interval. No-op if running.
  void restart_daemon(int i);
  /// Restart a Wackamole daemon after graceful_leave(). No-op if running.
  void rejoin(int i);
  /// Asymmetric fault: frames from server a to server b are dropped while
  /// the reverse direction keeps working (§2's pathological case).
  void block_path(int a, int b);
  void clear_blocked_paths();
  /// Random loss burst on the cluster segment; p = 0 heals.
  void set_loss(double p);
  /// Enforcement-layer faults (the fallible OS-op decorator): every
  /// acquire/release on server i fails with probability p; p = 0 heals the
  /// probabilistic knobs (sticky state is untouched).
  void set_os_fail(int i, double p);
  /// Sticky enforcement fault on server i: every acquire (and the
  /// announce-probe at quarantine cooldown) fails until heal_os(i).
  void set_os_fail_sticky(int i);
  /// Server i's gratuitous ARPs are silently lost (announce succeeds but
  /// never reaches the wire); on = false heals.
  void set_arp_lose(int i, bool on);
  /// Clear every injected enforcement fault on server i.
  void heal_os(int i);

  // ---- transient state corruption (self-stabilization campaign) ----
  // Each verb flips bits in one daemon's hot state through a chaos
  // backdoor; each returns whether the corruption actually applied (the
  // daemon must be running, connected and non-IDLE — the ReconvergenceOracle
  // only tracks applied injections).
  /// Stray write into server i's VIP table: the group at `group_index`
  /// (mod table size) gets an owner no view ever contained.
  bool corrupt_vip_owner(int i, int group_index);
  /// Desync server i's member->groups index from its owner map.
  bool corrupt_index(int i, int group_index);
  /// Bit-flip server i's cached ViewTag: every in-view message looks stale.
  bool stale_incarnation(int i);
  /// Bit-flip the epoch of server i's installed GCS view.
  bool flip_view_id(int i);
  /// Reconfiguration storm: three forced rediscoveries on server i's GCS
  /// daemon spaced 200 ms apart (exercises the resync backoff damping).
  bool reconfig_storm(int i);

  // ---- queries ----
  [[nodiscard]] net::Ipv4Address vip(int index) const;
  /// Address layout behind vip(): apps::vip_address for this cluster.
  [[nodiscard]] net::Ipv4Address vip_address(int index) const;
  /// How many of the given servers hold `ip` on an up interface.
  [[nodiscard]] int coverage_count(net::Ipv4Address ip,
                                   const std::vector<int>& servers) const;
  /// True iff every VIP is covered exactly once among `servers`.
  [[nodiscard]] bool coverage_exactly_once(
      const std::vector<int>& servers) const;
  /// Index of the server owning VIP `vip_index`, or -1.
  [[nodiscard]] int owner_of(int vip_index) const;

  [[nodiscard]] wackamole::Daemon& wam(int i) {
    return *wams_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] gcs::Daemon& gcs_daemon(int i) {
    return *gcs_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] net::Host& server_host(int i) {
    return *servers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] wackamole::SimIpManager& ip_manager(int i) {
    return *ipmgrs_[static_cast<std::size_t>(i)];
  }
  /// The fault-injecting decorator each daemon actually talks through; a
  /// pure pass-through to ip_manager(i) until a fault knob is set.
  [[nodiscard]] wackamole::FaultyIpManager& faulty_ip_manager(int i) {
    return *faulty_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] net::Host& client_host() { return *clients_.front(); }
  [[nodiscard]] net::Host& client_host(int i) {
    return *clients_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int num_clients() const {
    return static_cast<int>(clients_.size());
  }
  /// The sharded engine, or nullptr on the legacy path (observability:
  /// tests and benches read windows()/posts()).
  [[nodiscard]] sim::ShardSet* shards() { return shards_.get(); }
  [[nodiscard]] ProbeClient& probe() { return *probe_; }
  /// Every attached traffic source (the probe included, once started).
  [[nodiscard]] const std::vector<std::unique_ptr<TrafficSource>>& traffic()
      const {
    return traffic_;
  }
  /// Merged report across all attached traffic sources.
  [[nodiscard]] TrafficReport traffic_report() const;
  [[nodiscard]] net::Router* router() { return router_.get(); }
  [[nodiscard]] int num_servers() const { return options_.num_servers; }
  [[nodiscard]] const ClusterOptions& options() const { return options_; }
  [[nodiscard]] std::vector<int> all_servers() const;

  sim::Scheduler sched;
  sim::Log log{sched};
  /// Shared observability context: every daemon, host and fabric in the
  /// scenario is bound here (scopes "wam/s<N>", "gcs/s<N>", "net", ...).
  /// Declared before the components so it outlives their bound counters.
  obs::Observability obs;
  /// The structured events, for reading and JSON export (`obs.bus`).
  obs::EventTimeline& timeline = obs.bus;
  /// Seeded from ClusterOptions::seed in the constructor, so two scenarios
  /// with the same options replay byte-identical frame timing.
  net::Fabric fabric;

 private:
  ClusterOptions options_;
  std::unique_ptr<sim::ShardSet> shards_;
  net::SegmentId cluster_seg_;
  net::SegmentId external_seg_ = -1;
  std::unique_ptr<net::Router> router_;
  std::vector<std::unique_ptr<net::Host>> servers_;
  std::vector<std::unique_ptr<gcs::Daemon>> gcs_;
  std::vector<std::unique_ptr<wackamole::SimIpManager>> ipmgrs_;
  std::vector<std::unique_ptr<wackamole::FaultyIpManager>> faulty_;
  std::vector<std::unique_ptr<wackamole::Daemon>> wams_;
  std::vector<std::unique_ptr<EchoServer>> echos_;
  std::vector<std::unique_ptr<net::Host>> clients_;
  std::vector<std::unique_ptr<TrafficSource>> traffic_;  // owns probe_ too
  ProbeClient* probe_ = nullptr;
};

}  // namespace wam::apps
