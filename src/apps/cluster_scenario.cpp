#include "apps/cluster_scenario.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace wam::apps {

net::Ipv4Address vip_address(int index, int num_vips) {
  if (num_vips <= 100) {
    return net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(100 + index));
  }
  return net::Ipv4Address(10, 0, static_cast<std::uint8_t>(16 + index / 256),
                          static_cast<std::uint8_t>(index % 256));
}

net::Ipv4Address lan_client_address(int i, bool wide) {
  return net::Ipv4Address(10, 0, wide ? 255 : 0,
                          static_cast<std::uint8_t>(253 - i));
}

int client_shard(int i, int shards) {
  return shards <= 1 ? 0 : 1 + (i % (shards - 1));
}

ClusterScenario::ClusterScenario(ClusterOptions options)
    : fabric(sched, &log, options.seed), options_(std::move(options)) {
  WAM_EXPECTS(options_.num_servers >= 1);
  WAM_EXPECTS(options_.num_vips >= 1 && options_.num_vips <= 4096);
  WAM_EXPECTS(options_.load_clients >= 1 && options_.load_clients <= 32);
  WAM_EXPECTS(options_.shards >= 1);
  const bool wide = options_.num_vips > 100;
  const int prefix = wide ? 16 : 24;
  const auto router_ip = wide ? net::Ipv4Address(10, 0, 255, 254)
                              : net::Ipv4Address(10, 0, 0, 254);

  cluster_seg_ = fabric.add_segment();
  fabric.bind_observability(obs, "net");
  if (options_.with_router) external_seg_ = fabric.add_segment();

  if (options_.shards > 1) {
    // Lookahead = the minimum per-hop latency: anything sent in a window
    // arrives in a window that has not started yet (conservative PDES).
    sim::Duration lookahead = fabric.segment_config(cluster_seg_).latency;
    if (external_seg_ >= 0) {
      lookahead =
          std::min(lookahead, fabric.segment_config(external_seg_).latency);
    }
    shards_ = std::make_unique<sim::ShardSet>(sched, options_.shards,
                                              lookahead);
    shards_->set_threads(options_.shard_threads);
    fabric.set_sharding(*shards_);
  }

  // The shared VIP set (one single-address group per VIP: web-cluster mode).
  std::vector<net::Ipv4Address> vips;
  for (int k = 0; k < options_.num_vips; ++k) {
    vips.push_back(vip_address(k));
  }

  if (options_.with_router) {
    router_ = std::make_unique<net::Router>(sched, fabric, "router", &log);
    router_->attach_network(cluster_seg_, router_ip, prefix);
    router_->attach_network(external_seg_, net::Ipv4Address(172, 16, 0, 1),
                            24);
  }
  for (int i = 0; i < options_.load_clients; ++i) {
    const int shard = client_shard(i, options_.shards);
    // A client on shard k schedules its timers (and receives its frames)
    // on shard k's run-loop; non-zero shards log nowhere, since the shared
    // Log reads shard 0's clock.
    sim::Scheduler& csched = shards_ ? shards_->shard(shard) : sched;
    sim::Log* clog = shard == 0 ? &log : nullptr;
    const std::string name =
        i == 0 ? "client" : "client" + std::to_string(i + 1);
    auto client = std::make_unique<net::Host>(csched, fabric, name, clog);
    if (options_.with_router) {
      client->add_interface(external_seg_,
                            net::Ipv4Address(172, 16, 0,
                                             static_cast<std::uint8_t>(2 + i)),
                            24);
      client->set_default_gateway(net::Ipv4Address(172, 16, 0, 1));
    } else {
      client->add_interface(cluster_seg_, lan_client_address(i, wide), prefix);
    }
    if (shards_) fabric.assign_shard(client->nic_id(0), shard);
    clients_.push_back(std::move(client));
  }

  for (int i = 0; i < options_.num_servers; ++i) {
    auto host = std::make_unique<net::Host>(
        sched, fabric, "server" + std::to_string(i + 1), &log);
    host->add_interface(
        cluster_seg_,
        net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)), prefix);
    if (options_.with_router) {
      host->set_default_gateway(router_ip);
    }

    auto gcsd = std::make_unique<gcs::Daemon>(*host, options_.gcs, &log);

    auto ipmgr = std::make_unique<wackamole::SimIpManager>(*host);
    if (options_.with_router) {
      ipmgr->set_router(0, router_ip);
    }
    // Every daemon talks through the fault decorator; at default knobs it
    // is a pure pass-through consuming no randomness, so pre-existing
    // pinned seeds replay byte-identically.
    auto faulty = std::make_unique<wackamole::FaultyIpManager>(
        *ipmgr, options_.seed * 1000003u + static_cast<std::uint64_t>(i));

    auto config = wackamole::Config::web_cluster(vips, 0);
    config.balance_timeout = options_.balance_timeout;
    config.maturity_timeout = options_.maturity_timeout;
    config.announce_interval = options_.announce_interval;
    config.quarantine_cooldown = options_.quarantine_cooldown;
    config.audit_interval = options_.audit_interval;
    config.resync_delay = options_.resync_delay;
    config.resync_backoff_max = options_.resync_backoff_max;
    auto wamd = std::make_unique<wackamole::Daemon>(sched, config, *gcsd,
                                                    *faulty, &log);
    auto echo = std::make_unique<EchoServer>(*host);

    // One scope suffix per server — "s1" matches host name "server1" — so
    // bench queries can sum across daemons with "wam/*/acquires".
    const std::string suffix = "/s" + std::to_string(i + 1);
    host->bind_observability(obs, "net" + suffix);
    gcsd->bind_observability(obs, "gcs" + suffix);
    ipmgr->bind_observability(obs, "ip" + suffix);
    wamd->bind_observability(obs, "wam" + suffix);

    servers_.push_back(std::move(host));
    gcs_.push_back(std::move(gcsd));
    ipmgrs_.push_back(std::move(ipmgr));
    faulty_.push_back(std::move(faulty));
    wams_.push_back(std::move(wamd));
    echos_.push_back(std::move(echo));
  }
}

void ClusterScenario::advance_to(sim::TimePoint t) {
  if (shards_) {
    shards_->run_until(t);
    fabric.fold_shard_counters();
  } else {
    sched.run_until(t);
  }
}

void ClusterScenario::start() {
  for (auto& d : gcs_) d->start();
  for (auto& w : wams_) w->start();
  for (auto& e : echos_) e->start();
}

void ClusterScenario::start_probe(int vip_index) {
  auto config = options_.probe;
  config.target = vip(vip_index);
  auto probe = std::make_unique<ProbeClient>(client_host(), config);
  probe_ = probe.get();
  attach_traffic(std::move(probe));
}

TrafficSource& ClusterScenario::attach_traffic(
    std::unique_ptr<TrafficSource> source) {
  traffic_.push_back(std::move(source));
  traffic_.back()->start();
  return *traffic_.back();
}

TrafficReport ClusterScenario::traffic_report() const {
  TrafficReport total;
  for (const auto& source : traffic_) total.merge(source->report());
  return total;
}

bool ClusterScenario::run_until_stable(sim::Duration limit) {
  auto deadline = sched.now() + limit;
  while (sched.now() < deadline) {
    run(sim::milliseconds(100));
    bool stable = true;
    for (auto& w : wams_) {
      if (w->running() && w->connected() &&
          w->state() != wackamole::WamState::kRun) {
        stable = false;
        break;
      }
    }
    if (stable) return true;
  }
  return false;
}

void ClusterScenario::disconnect_server(int i) {
  servers_[static_cast<std::size_t>(i)]->set_interface_up(0, false);
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "iface_down"}, {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::reconnect_server(int i) {
  servers_[static_cast<std::size_t>(i)]->set_interface_up(0, true);
  obs.emit(sched.now(), obs::EventType::kFaultHealed, "scenario",
           {{"kind", "iface_up"}, {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::graceful_leave(int i) {
  auto& w = *wams_[static_cast<std::size_t>(i)];
  if (!w.running() || !w.connected()) return;
  w.graceful_shutdown();
}

void ClusterScenario::partition(const std::vector<std::vector<int>>& groups) {
  // Partition only the cluster segment; the router and any non-server NICs
  // stay with group 0.
  std::vector<std::vector<net::NicId>> nic_groups;
  std::set<int> assigned;
  for (const auto& group : groups) {
    std::vector<net::NicId> nics;
    for (int idx : group) {
      nics.push_back(servers_[static_cast<std::size_t>(idx)]->nic_id(0));
      assigned.insert(idx);
    }
    nic_groups.push_back(std::move(nics));
  }
  WAM_EXPECTS(assigned.size() ==
              static_cast<std::size_t>(options_.num_servers));
  if (router_) nic_groups[0].push_back(router_->host().nic_id(0));
  if (!options_.with_router) {
    for (const auto& client : clients_) {
      nic_groups[0].push_back(client->nic_id(0));
    }
  }
  fabric.set_partition(cluster_seg_, nic_groups);
}

void ClusterScenario::merge() { fabric.merge_segment(cluster_seg_); }

void ClusterScenario::crash_daemon(int i) {
  auto& d = *gcs_[static_cast<std::size_t>(i)];
  if (!d.running()) return;
  d.stop();
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "daemon_crash"}, {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::restart_daemon(int i) {
  auto& d = *gcs_[static_cast<std::size_t>(i)];
  if (d.running()) return;
  d.start();
  obs.emit(sched.now(), obs::EventType::kFaultHealed, "scenario",
           {{"kind", "daemon_restart"},
            {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::rejoin(int i) {
  auto& w = *wams_[static_cast<std::size_t>(i)];
  if (w.running()) return;
  w.start();
  obs.emit(sched.now(), obs::EventType::kFaultHealed, "scenario",
           {{"kind", "rejoin"}, {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::block_path(int a, int b) {
  fabric.block_direction(servers_[static_cast<std::size_t>(a)]->nic_id(0),
                         servers_[static_cast<std::size_t>(b)]->nic_id(0));
}

void ClusterScenario::clear_blocked_paths() {
  fabric.clear_directional_blocks();
}

void ClusterScenario::set_loss(double p) {
  fabric.set_drop_probability(cluster_seg_, p);
}

void ClusterScenario::set_os_fail(int i, double p) {
  auto& f = faulty_ip_manager(i);
  f.set_acquire_fail_probability(p);
  f.set_release_fail_probability(p);
  obs.emit(sched.now(),
           p > 0.0 ? obs::EventType::kFaultInjected
                   : obs::EventType::kFaultHealed,
           "scenario",
           {{"kind", "os_fail"},
            {"server", "s" + std::to_string(i + 1)},
            {"p", std::to_string(p)}});
}

void ClusterScenario::set_os_fail_sticky(int i) {
  faulty_ip_manager(i).set_sticky_all(true);
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "os_fail_sticky"},
            {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::set_arp_lose(int i, bool on) {
  faulty_ip_manager(i).set_arp_lose(on);
  obs.emit(sched.now(),
           on ? obs::EventType::kFaultInjected : obs::EventType::kFaultHealed,
           "scenario",
           {{"kind", "arp_lose"}, {"server", "s" + std::to_string(i + 1)}});
}

void ClusterScenario::heal_os(int i) {
  faulty_ip_manager(i).heal();
  obs.emit(sched.now(), obs::EventType::kFaultHealed, "scenario",
           {{"kind", "os_heal"}, {"server", "s" + std::to_string(i + 1)}});
}

bool ClusterScenario::corrupt_vip_owner(int i, int group_index) {
  bool applied = wam(i).chaos_corrupt_vip_owner(group_index);
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "corrupt_vip_owner"},
            {"server", "s" + std::to_string(i + 1)},
            {"group_index", group_index},
            {"applied", applied ? "1" : "0"}});
  return applied;
}

bool ClusterScenario::corrupt_index(int i, int group_index) {
  bool applied = wam(i).chaos_corrupt_index(group_index);
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "corrupt_index"},
            {"server", "s" + std::to_string(i + 1)},
            {"group_index", group_index},
            {"applied", applied ? "1" : "0"}});
  return applied;
}

bool ClusterScenario::stale_incarnation(int i) {
  bool applied = wam(i).chaos_corrupt_view_tag();
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "stale_incarnation"},
            {"server", "s" + std::to_string(i + 1)},
            {"applied", applied ? "1" : "0"}});
  return applied;
}

bool ClusterScenario::flip_view_id(int i) {
  bool applied = gcs_daemon(i).chaos_flip_view_epoch();
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "flip_view_id"},
            {"server", "s" + std::to_string(i + 1)},
            {"applied", applied ? "1" : "0"}});
  return applied;
}

bool ClusterScenario::reconfig_storm(int i) {
  // Three rediscoveries in quick succession: one membership churn burst.
  // The follow-up kicks ride timers on the servers' scheduler (shard 0 in
  // sharded runs) so sequential and sharded timelines stay byte-identical.
  bool applied = gcs_daemon(i).force_rediscovery("chaos: reconfig storm");
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "reconfig_storm"},
            {"server", "s" + std::to_string(i + 1)},
            {"applied", applied ? "1" : "0"}});
  if (applied) {
    gcs::Daemon* d = &gcs_daemon(i);
    sched.schedule(sim::milliseconds(200), [d] {
      d->force_rediscovery("chaos: reconfig storm (2/3)");
    });
    sched.schedule(sim::milliseconds(400), [d] {
      d->force_rediscovery("chaos: reconfig storm (3/3)");
    });
  }
  return applied;
}

net::Ipv4Address ClusterScenario::vip(int index) const {
  WAM_EXPECTS(index >= 0 && index < options_.num_vips);
  return vip_address(index);
}

net::Ipv4Address ClusterScenario::vip_address(int index) const {
  return apps::vip_address(index, options_.num_vips);
}

int ClusterScenario::coverage_count(net::Ipv4Address ip,
                                    const std::vector<int>& servers) const {
  int count = 0;
  for (int idx : servers) {
    const auto& host = *servers_[static_cast<std::size_t>(idx)];
    if (host.owns_ip(ip)) ++count;
  }
  return count;
}

bool ClusterScenario::coverage_exactly_once(
    const std::vector<int>& servers) const {
  for (int k = 0; k < options_.num_vips; ++k) {
    if (coverage_count(vip(k), servers) != 1) return false;
  }
  return true;
}

int ClusterScenario::owner_of(int vip_index) const {
  auto ip = vip(vip_index);
  for (int i = 0; i < options_.num_servers; ++i) {
    if (servers_[static_cast<std::size_t>(i)]->owns_ip(ip)) return i;
  }
  return -1;
}

std::vector<int> ClusterScenario::all_servers() const {
  std::vector<int> out;
  for (int i = 0; i < options_.num_servers; ++i) out.push_back(i);
  return out;
}

}  // namespace wam::apps
