#include "load/harness.hpp"

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/cluster_scenario.hpp"
#include "apps/echo.hpp"
#include "baselines/fake.hpp"
#include "baselines/hsrp.hpp"
#include "baselines/vrrp.hpp"
#include "load/generator.hpp"
#include "sim/shard.hpp"
#include "util/assert.hpp"

namespace wam::load {

namespace {

std::vector<net::Ipv4Address> vip_list(int num_vips) {
  std::vector<net::Ipv4Address> vips;
  vips.reserve(static_cast<std::size_t>(num_vips));
  for (int k = 0; k < num_vips; ++k) {
    vips.push_back(apps::vip_address(k, num_vips));
  }
  return vips;
}

LoadOptions load_options(const TrialOptions& t, int client, int num_clients) {
  LoadOptions opt;
  opt.vips = vip_list(t.vips);
  // The offered rate is split evenly over the client population, so the
  // cluster sees the same aggregate load regardless of `clients`.
  opt.flows_per_second = t.flows_per_second / num_clients;
  opt.zipf_skew = t.zipf_skew;
  opt.long_flow_fraction = t.long_flow_fraction;
  // Client 0 keeps the exact historical derivation (decoupled from the
  // fabric seed); extra clients perturb it with a distinct odd stride.
  opt.seed = t.seed * 0x9e3779b97f4a7c15ULL + 1 +
             0x100000001b3ULL * static_cast<std::uint64_t>(client);
  return opt;
}

void fill_result(TrialResult& r, const TrialOptions& t, const FlowStats& stats,
                 std::uint64_t flows_started) {
  r.protocol = t.protocol;
  r.members = t.members;
  r.vips = t.vips;
  r.flows_per_second = t.flows_per_second;
  r.seed = t.seed;
  r.flows = flows_started;
  r.offered = stats.offered();
  r.answered = stats.answered();
  r.lost = stats.lost();
  r.retries = stats.retries();
  r.availability = stats.availability();
  r.effective_downtime_s = stats.effective_downtime_seconds();
  r.longest_gap_s = sim::to_seconds(stats.longest_response_gap());
  auto windows = stats.failover_windows(t.window);
  if (!windows.empty()) {
    const FailoverWindow& w = windows.front();
    r.p99_before_ms = w.p99_before * 1e3;
    r.p99_after_ms = w.p99_after * 1e3;
    r.p999_before_ms = w.p999_before * 1e3;
    r.p999_after_ms = w.p999_after * 1e3;
  }
}

/// Fold a generator population's accounting into one TrialResult.
void fill_merged(TrialResult& r, const TrialOptions& t,
                 const std::vector<LoadGenerator*>& gens) {
  FlowStats merged = gens.front()->stats();
  std::uint64_t flows = gens.front()->flows_started();
  for (std::size_t i = 1; i < gens.size(); ++i) {
    merged.merge(gens[i]->stats());
    flows += gens[i]->flows_started();
  }
  fill_result(r, t, merged, flows);
}

TrialResult wackamole_trial(const TrialOptions& t) {
  WAM_EXPECTS(t.clients >= 1);
  apps::ClusterOptions copt;
  copt.num_servers = t.members;
  copt.num_vips = t.vips;
  copt.with_router = false;  // same-LAN client, like the baselines
  copt.shards = t.shards;
  copt.shard_threads = t.shard_threads;
  copt.load_clients = t.clients;
  copt.seed = t.seed;
  apps::ClusterScenario s(copt);
  s.start();
  s.run_until_stable(sim::seconds(120.0));
  for (int i = 0; i < s.num_servers(); ++i) {
    if (s.wam(i).trigger_balance()) break;
  }
  s.run(sim::seconds(2.0));

  std::vector<LoadGenerator*> gens;
  for (int c = 0; c < s.num_clients(); ++c) {
    auto owned = std::make_unique<LoadGenerator>(
        s.client_host(c), load_options(t, c, s.num_clients()));
    // Pin every generator's bucket grid to one origin so the post-run
    // merge adds bucket-to-bucket (one client keeps the legacy lazy
    // origin, which is byte-identical to history).
    if (s.num_clients() > 1) owned->stats().set_origin(s.sched.now());
    gens.push_back(owned.get());
    s.attach_traffic(std::move(owned));
  }
  s.run(t.warmup);

  const int victim = s.owner_of(0);  // whoever covers the hottest VIP
  WAM_EXPECTS(victim >= 0);
  gens.front()->stats().mark_event(s.sched.now(), "disconnect");
  s.disconnect_server(victim);
  s.run(t.after);
  for (auto* gen : gens) gen->drain();
  s.run(sim::seconds(2.0));

  TrialResult r;
  fill_merged(r, t, gens);
  return r;
}

/// Flat LAN shared by the VRRP/HSRP/Fake trials: `members` hosts all
/// running echo servers, a client population, same VIP addresses as
/// Wackamole. With t.shards > 1 the world runs on the sharded engine:
/// members (and the protocol traffic between them) on shard 0, clients
/// spread over shards 1..N-1.
struct BaselineLan {
  sim::Scheduler sched;
  sim::Log log{sched};
  net::Fabric fabric;
  std::unique_ptr<sim::ShardSet> shards;
  net::SegmentId seg;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<apps::EchoServer>> echos;
  std::vector<std::unique_ptr<net::Host>> clients;

  explicit BaselineLan(const TrialOptions& t) : fabric(sched, &log, t.seed) {
    WAM_EXPECTS(t.clients >= 1 && t.clients <= 32);
    WAM_EXPECTS(t.shards >= 1);
    seg = fabric.add_segment();
    if (t.shards > 1) {
      shards = std::make_unique<sim::ShardSet>(
          sched, t.shards, fabric.segment_config(seg).latency);
      shards->set_threads(t.shard_threads);
      fabric.set_sharding(*shards);
    }
    const bool wide = t.vips > 100;
    const int prefix = wide ? 16 : 24;
    for (int i = 0; i < t.members; ++i) {
      auto host = std::make_unique<net::Host>(
          sched, fabric, "member" + std::to_string(i + 1), &log);
      host->add_interface(
          seg, net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
          prefix);
      echos.push_back(std::make_unique<apps::EchoServer>(*host));
      echos.back()->start();
      hosts.push_back(std::move(host));
    }
    for (int i = 0; i < t.clients; ++i) {
      const int shard = apps::client_shard(i, t.shards);
      sim::Scheduler& csched = shards ? shards->shard(shard) : sched;
      auto client = std::make_unique<net::Host>(
          csched, fabric,
          i == 0 ? "client" : "client" + std::to_string(i + 1),
          shard == 0 ? &log : nullptr);
      client->add_interface(seg, apps::lan_client_address(i, wide), prefix);
      if (shards) fabric.assign_shard(client->nic_id(0), shard);
      clients.push_back(std::move(client));
    }
  }

  void run_for(sim::Duration d) {
    if (shards) {
      shards->run_for(d);
      fabric.fold_shard_counters();
    } else {
      sched.run_for(d);
    }
  }

  /// Settle the protocol, run load around a member-0 crash, fill `r`.
  TrialResult measure(const TrialOptions& t, sim::Duration settle) {
    run_for(settle);
    std::vector<std::unique_ptr<LoadGenerator>> owned;
    std::vector<LoadGenerator*> gens;
    for (int c = 0; c < static_cast<int>(clients.size()); ++c) {
      owned.push_back(std::make_unique<LoadGenerator>(
          *clients[static_cast<std::size_t>(c)],
          load_options(t, c, static_cast<int>(clients.size()))));
      if (clients.size() > 1) owned.back()->stats().set_origin(sched.now());
      owned.back()->start();
      gens.push_back(owned.back().get());
    }
    run_for(t.warmup);
    gens.front()->stats().mark_event(sched.now(), "fail member1");
    hosts[0]->fail();
    run_for(t.after);
    for (auto* gen : gens) gen->drain();
    run_for(sim::seconds(2.0));
    TrialResult r;
    fill_merged(r, t, gens);
    return r;
  }
};

TrialResult vrrp_trial(const TrialOptions& t) {
  WAM_EXPECTS(t.members >= 2);
  BaselineLan lan(t);
  const auto vips = vip_list(t.vips);
  std::vector<std::unique_ptr<baselines::VrrpRouter>> routers;
  for (int i = 0; i < t.members; ++i) {
    baselines::VrrpConfig cfg;
    cfg.vrid = 1;
    cfg.vips = vips;
    cfg.priority = static_cast<std::uint8_t>(200 - i);  // member 0 masters
    routers.push_back(std::make_unique<baselines::VrrpRouter>(
        *lan.hosts[static_cast<std::size_t>(i)], cfg, &lan.log));
    routers.back()->start();
  }
  return lan.measure(t, sim::seconds(8.0));
}

TrialResult hsrp_trial(const TrialOptions& t) {
  WAM_EXPECTS(t.members >= 2);
  BaselineLan lan(t);
  const auto vips = vip_list(t.vips);
  std::vector<std::unique_ptr<baselines::HsrpRouter>> routers;
  for (int i = 0; i < t.members; ++i) {
    baselines::HsrpConfig cfg;
    cfg.group = 1;
    cfg.vips = vips;
    cfg.priority = static_cast<std::uint8_t>(200 - i);  // member 0 active
    routers.push_back(std::make_unique<baselines::HsrpRouter>(
        *lan.hosts[static_cast<std::size_t>(i)], cfg, &lan.log));
    routers.back()->start();
  }
  // HSRP's active/standby election is the slowest to converge.
  return lan.measure(t, sim::seconds(45.0));
}

TrialResult fake_trial(const TrialOptions& t) {
  WAM_EXPECTS(t.members >= 2);
  BaselineLan lan(t);
  const auto vips = vip_list(t.vips);
  // 1:1 active/standby — member 0 serves every VIP, member 1 probes it.
  // Members beyond the pair run echo servers but cannot protect anything;
  // that capability gap is part of the comparison.
  for (const auto& vip : vips) lan.hosts[0]->add_alias(0, vip);
  baselines::FakeResponder responder(*lan.hosts[0]);
  responder.start();
  baselines::FakeConfig cfg;
  cfg.main_ip = lan.hosts[0]->primary_ip();
  cfg.vips = vips;
  baselines::FakeBackup backup(*lan.hosts[1], cfg);
  backup.start();
  return lan.measure(t, sim::seconds(5.0));
}

}  // namespace

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kWackamole: return "wackamole";
    case Protocol::kVrrp: return "vrrp";
    case Protocol::kHsrp: return "hsrp";
    case Protocol::kFake: return "fake";
  }
  return "?";
}

std::string TrialResult::to_json() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"protocol\": \"%s\", \"members\": %d, \"vips\": %d, "
      "\"flows_per_second\": %.1f, \"seed\": %llu, \"flows\": %llu, "
      "\"offered\": %llu, \"answered\": %llu, \"lost\": %llu, "
      "\"retries\": %llu, \"availability\": %.6f, "
      "\"effective_downtime_s\": %.6f, \"longest_gap_s\": %.6f, "
      "\"p99_before_ms\": %.4f, \"p99_after_ms\": %.4f, "
      "\"p999_before_ms\": %.4f, \"p999_after_ms\": %.4f}",
      protocol_name(protocol), members, vips, flows_per_second,
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(flows),
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(retries), availability,
      effective_downtime_s, longest_gap_s, p99_before_ms, p99_after_ms,
      p999_before_ms, p999_after_ms);
  return buf;
}

TrialResult run_failover_trial(const TrialOptions& options) {
  switch (options.protocol) {
    case Protocol::kWackamole: return wackamole_trial(options);
    case Protocol::kVrrp: return vrrp_trial(options);
    case Protocol::kHsrp: return hsrp_trial(options);
    case Protocol::kFake: return fake_trial(options);
  }
  WAM_EXPECTS(false);
}

}  // namespace wam::load
