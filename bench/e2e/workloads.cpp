// The five benchmark workloads, composed from the library's public calls.
//
// Each rep builds its world from scratch, times every phase from outside,
// and runs the workload's correctness checks between phases. Counters are
// read through the components' public counters() views (the registry
// cells the obs layer binds), so a traced rep can attribute work to layers
// without any instrumentation inside src/.
#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/cluster_scenario.hpp"
#include "chaos/campaign.hpp"
#include "e2e.hpp"
#include "load/generator.hpp"
#include "load/harness.hpp"
#include "sim/random.hpp"

namespace e2e {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder::Recorder() {
  Span root;
  root.name = "rep";
  root.start_s = wall_now();
  spans_.push_back(std::move(root));
}

void Recorder::phase(const std::string& name, const std::function<void()>& body,
                     bool setup) {
  Counts before;
  if (snapshot_) before = snapshot_();
  Span span;
  span.name = name;
  span.parent = 0;
  span.start_s = wall_now();
  body();
  span.end_s = wall_now();
  if (snapshot_) {
    for (const auto& [key, after] : snapshot_()) {
      // "_peak" counts are high-water marks, reported as levels.
      const bool level = key.size() > 5 &&
                         key.compare(key.size() - 5, 5, "_peak") == 0;
      span.counts[key] = level ? after : after - before[key];
    }
  }
  (setup ? setup_s_ : wall_s_) += span.seconds();
  spans_.push_back(std::move(span));
}

void Recorder::finish() { spans_.front().end_s = wall_now(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Recorder::coverage() const {
  double children = 0;
  for (std::size_t i = 1; i < spans_.size(); ++i) children += spans_[i].seconds();
  const double root = spans_.front().seconds();
  return root > 0 ? children / root : 0;
}

namespace {

using namespace wam;

/// FNV-1a, for folding long deterministic outputs into a fingerprint.
std::uint64_t fnv(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

std::string counts_text(const Counts& c) {
  std::string out;
  for (const auto& [k, v] : c) out += k + "=" + std::to_string(v) + ";";
  return out;
}

// ---------------------------------------------------------------- counts --

/// Every per-layer count a ClusterScenario world exposes publicly.
Counts snapshot_world(apps::ClusterScenario& s,
                      const std::vector<load::LoadGenerator*>& gens,
                      const apps::ProbeClient* probe) {
  Counts c;
  std::uint64_t events = s.sched.executed_events();
  std::uint64_t slab = s.sched.slab_size();
  std::uint64_t windows = 0;
  std::uint64_t posts = 0;
  if (sim::ShardSet* shards = s.shards()) {
    for (int i = 1; i < shards->size(); ++i) {  // shard 0 is s.sched
      events += shards->shard(i).executed_events();
      slab += shards->shard(i).slab_size();
    }
    windows = shards->windows();
    posts = shards->posts();
  }
  c["sim.events"] = events;
  c["sim.slab_peak"] = slab;
  c["sim.shard.windows"] = windows;
  c["sim.shard.posts"] = posts;

  const net::FabricCounters& f = s.fabric.counters();
  c["net.frames_sent"] = f.frames_sent;
  c["net.frames_delivered"] = f.frames_delivered;
  c["net.frames_dropped"] = f.dropped_no_target + f.dropped_partition +
                            f.dropped_nic_down + f.dropped_random +
                            f.dropped_directional;
  std::uint64_t udp = 0;
  std::uint64_t arp = 0;
  auto add_host = [&](const net::Host& h) {
    udp += h.counters().udp_received;
    arp += h.counters().arp_requests_sent + h.counters().arp_replies_sent;
  };
  for (int i = 0; i < s.num_servers(); ++i) add_host(s.server_host(i));
  for (int i = 0; i < s.num_clients(); ++i) add_host(s.client_host(i));
  if (s.router() != nullptr) add_host(s.router()->host());
  c["net.udp_received"] = udp;
  c["net.arp_sent"] = arp;

  for (int i = 0; i < s.num_servers(); ++i) {
    const gcs::DaemonCounters& g = s.gcs_daemon(i).counters();
    c["gcs.views_installed"] += g.views_installed;
    c["gcs.discoveries_started"] += g.discoveries_started;
    c["gcs.data_sequenced"] += g.data_sequenced;
    c["gcs.data_delivered"] += g.data_delivered;
    c["gcs.retransmissions"] += g.retransmissions;
    c["gcs.nacks_sent"] += g.nacks_sent;
    c["gcs.corruptions_detected"] += g.corruptions_detected;
    c["gcs.self_heals"] += g.self_heals;
    const wackamole::WamCounters& w = s.wam(i).counters();
    c["wam.state_msgs_sent"] += w.state_msgs_sent;
    c["wam.state_msgs_received"] += w.state_msgs_received;
    c["wam.stale_msgs_ignored"] += w.stale_msgs_ignored;
    c["wam.reallocations"] += w.reallocations;
    c["wam.balance_rounds"] += w.balance_rounds;
    c["wam.acquires"] += w.acquires;
    c["wam.releases"] += w.releases;
    c["wam.conflicts_dropped"] += w.conflicts_dropped;
    c["wam.corruptions_detected"] += w.corruptions_detected;
    c["wam.self_heals"] += w.self_heals;
    c["wam.resyncs"] += w.resyncs;
  }

  for (const load::LoadGenerator* g : gens) {
    c["load.flows"] += g->flows_started();
    c["load.offered"] += g->stats().offered();
    c["load.answered"] += g->stats().answered();
    c["load.retries"] += g->stats().retries();
    c["load.lost"] += g->stats().lost();
  }
  if (probe != nullptr) {
    c["apps.probe_sent"] = probe->requests_sent();
    c["apps.probe_answered"] = probe->responses().size();
  }
  c["obs.timeline_events"] = s.obs.bus.published();
  return c;
}

// ------------------------------------------------- cluster workloads ----

struct ClusterShape {
  int servers;
  int vips;
  int cycles;
  bool rebalance;  // vip_rebalance: trigger a balance round after each rejoin
};

ClusterShape cluster_shape(const Config& cfg) {
  if (cfg.workload == "membership_churn") {
    return cfg.smoke ? ClusterShape{8, 16, 1, false}
                     : ClusterShape{32, 64, 2, false};
  }
  return cfg.smoke ? ClusterShape{4, 256, 2, true}
                   : ClusterShape{8, 4096, 15, true};
}

apps::ClusterOptions cluster_options(const Config& cfg) {
  const ClusterShape shape = cluster_shape(cfg);
  apps::ClusterOptions o;  // router, 10 ms probe, tuned Spread timeouts
  o.num_servers = shape.servers;
  o.num_vips = shape.vips;
  o.seed = cfg.seed;
  return o;
}

/// Ask every daemon to balance; only the representative in RUN acts.
void trigger_balance(apps::ClusterScenario& s) {
  for (int i = 0; i < s.num_servers(); ++i) {
    if (s.wam(i).trigger_balance()) return;
  }
}

/// Most minus least loaded server, or -1 if some VIP has no owner.
int load_spread(const apps::ClusterScenario& s, int vips) {
  std::vector<int> load(static_cast<std::size_t>(s.num_servers()), 0);
  for (int k = 0; k < vips; ++k) {
    const int owner = s.owner_of(k);
    if (owner < 0) return -1;
    ++load[static_cast<std::size_t>(owner)];
  }
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  return *hi - *lo;
}

constexpr double kFaultSeconds = 10.0;
constexpr double kRejoinSeconds = 10.0;
constexpr double kSettleSeconds = 2.0;  // after each balance round

RepResult cluster_rep(const Config& cfg, RepKind /*kind*/, bool traced) {
  const ClusterShape shape = cluster_shape(cfg);
  RepResult r;
  Recorder rec;
  std::unique_ptr<apps::ClusterScenario> s;
  const apps::ProbeClient* probe = nullptr;

  rec.phase("setup", [&] {
    s = std::make_unique<apps::ClusterScenario>(cluster_options(cfg));
    s->start();
  }, true);
  if (traced) rec.set_snapshot([&] { return snapshot_world(*s, {}, probe); });

  bool converged = false;
  rec.phase("converge", [&] {
    converged = s->run_until_stable(sim::seconds(120.0));
  });
  r.shape = {shape.servers, shape.vips, s->sched.pending_events()};
  rec.phase("balance", [&] {
    trigger_balance(*s);
    s->start_probe(0);
    probe = &s->probe();
    s->run(sim::seconds(kSettleSeconds));
  });

  std::vector<sim::TimePoint> fault_at;
  std::vector<std::string> victims;
  std::vector<int> spreads;
  for (int k = 1; k <= shape.cycles; ++k) {
    const std::string n = std::to_string(k);
    int victim = -1;
    rec.phase("fault." + n, [&] {
      victim = s->owner_of(0);
      fault_at.push_back(s->sched.now());
      if (victim >= 0) s->disconnect_server(victim);
      s->run(sim::seconds(kFaultSeconds));
    });
    victims.push_back(victim >= 0 ? s->server_host(victim).name() : "");
    rec.phase("rejoin." + n, [&] {
      if (victim >= 0) s->reconnect_server(victim);
      s->run(sim::seconds(kRejoinSeconds));
    });
    if (victim < 0) r.fail("cycle " + n + ": VIP 0 had no owner");
    if (shape.rebalance) {
      rec.phase("rebalance." + n, [&] {
        trigger_balance(*s);
        s->run(sim::seconds(kSettleSeconds));
      });
      const int spread = load_spread(*s, shape.vips);
      spreads.push_back(spread);
      if (spread < 0 || spread > 1) {
        r.fail("cycle " + n + ": load spread " + std::to_string(spread) +
               " after balance");
      }
    }
  }
  rec.finish();
  r.spans = rec.spans();
  r.setup_s = rec.setup_s();
  r.wall_s = rec.wall_s();
  r.coverage = rec.coverage();

  // ---- checks on the finished world (outside the timed phases) ----
  if (!converged) r.fail("world did not converge");
  // Every fault must open exactly one probe silence of >= 1 s (the
  // membership timeout, not masked) that a surviving server ends within the
  // fault phase. Its length is the paper's interruption: last response to
  // first response from the new server. A rejoin can leave VIP 0 dark
  // before the next fault (see RESULTS.md, "rejoin black hole"); the
  // interruption then counts from one probe interval before the fault, and
  // the dark time before it is reported as blackhole_s.
  const sim::Duration interval = s->options().probe.interval;
  const auto gaps = probe->interruptions(sim::seconds(1.0));
  std::vector<double> per_fault;
  double silent = 0;
  for (const auto& g : gaps) silent += sim::to_seconds(g.length());
  const auto& responses = probe->responses();
  const sim::TimePoint last = responses.empty() ? sim::TimePoint{}
                                                : responses.back().time;
  if (s->sched.now() - last >= sim::seconds(1.0)) {
    silent += sim::to_seconds(s->sched.now() - last);  // still dark at the end
  }
  for (std::size_t k = 0; k < fault_at.size(); ++k) {
    const sim::TimePoint t = fault_at[k];
    const auto g = std::find_if(gaps.begin(), gaps.end(), [&](const auto& x) {
      return x.last_response <= t && x.first_response > t;
    });
    const sim::Duration length =
        g == gaps.end()
            ? sim::kZero
            : g->first_response - std::max(g->last_response, t - interval);
    if (length < sim::seconds(1.0) ||
        g->first_response > t + sim::seconds(kFaultSeconds) ||
        g->server_after == victims[k]) {
      r.fail("fault " + std::to_string(k + 1) +
             ": no >= 1 s probe gap ended by a survivor within the fault");
      continue;
    }
    per_fault.push_back(sim::to_seconds(length));
  }
  double interruptions = 0;
  for (double x : per_fault) interruptions += x;
  if (!s->coverage_exactly_once(s->all_servers())) {
    r.fail("coverage is not exactly once after the final rejoin");
  }
  r.ops = shape.cycles;

  r.totals = snapshot_world(*s, {}, probe);
  const double sent = static_cast<double>(probe->requests_sent());
  const double answered = static_cast<double>(probe->responses().size());
  r.virt["interruption_s"] = median(per_fault);
  r.virt["blackhole_s"] = silent - interruptions;
  r.virt["failed_frac"] = sent > 0 ? (sent - answered) / sent : 0;
  r.virt["probe_sent"] = sent;
  std::string fp = "gaps:";
  for (const auto& g : gaps) {
    fp += std::to_string(g.last_response.time_since_epoch().count()) + "+" +
          std::to_string(g.length().count()) + ",";
  }
  fp += " spreads:";
  for (int sp : spreads) fp += std::to_string(sp) + ",";
  r.fingerprint = fp + " counts:" + counts_text(r.totals);
  return r;
}

double cluster_setup_only(const Config& cfg) {
  const double t0 = wall_now();
  auto s = std::make_unique<apps::ClusterScenario>(cluster_options(cfg));
  s->start();
  return wall_now() - t0;
}

// ---------------------------------------------------- load workloads ----
//
// The measured reps recompose load::run_failover_trial's Wackamole trial
// from the same public calls harness.cpp makes, so each phase can be timed
// and counted. The warm-up rep calls run_failover_trial itself (for the
// sharded workload: its K = 1 sequential oracle), and every measured rep's
// TrialResult JSON must equal the warm-up's byte for byte.

bool sharded_workload(const Config& cfg) {
  return cfg.workload == "load_75k_sharded4";
}

load::TrialOptions trial_options(const Config& cfg) {
  load::TrialOptions t;
  t.protocol = load::Protocol::kWackamole;
  t.members = cfg.smoke ? 4 : 16;
  t.vips = cfg.smoke ? 32 : 256;
  t.flows_per_second = cfg.smoke ? 5000.0 : 75000.0;
  t.seed = cfg.seed;
  if (sharded_workload(cfg)) {
    t.shards = 4;
    t.shard_threads = true;
    t.clients = 3;
  }
  return t;
}

apps::ClusterOptions trial_cluster_options(const load::TrialOptions& t) {
  apps::ClusterOptions o;
  o.num_servers = t.members;
  o.num_vips = t.vips;
  o.with_router = false;
  o.shards = t.shards;
  o.shard_threads = t.shard_threads;
  o.load_clients = t.clients;
  o.seed = t.seed;
  return o;
}

/// The harness's per-client LoadOptions: the VIP list, the rate split over
/// the population, and its seed derivation.
load::LoadOptions client_load_options(const load::TrialOptions& t,
                                      const apps::ClusterScenario& s,
                                      int client, int num_clients) {
  load::LoadOptions opt;
  for (int k = 0; k < t.vips; ++k) opt.vips.push_back(s.vip_address(k));
  opt.flows_per_second = t.flows_per_second / num_clients;
  opt.zipf_skew = t.zipf_skew;
  opt.long_flow_fraction = t.long_flow_fraction;
  opt.seed = t.seed * 0x9e3779b97f4a7c15ULL + 1 +
             0x100000001b3ULL * static_cast<std::uint64_t>(client);
  return opt;
}

load::TrialResult trial_result(const load::TrialOptions& t,
                               const std::vector<load::LoadGenerator*>& gens) {
  load::FlowStats stats = gens.front()->stats();
  std::uint64_t flows = gens.front()->flows_started();
  for (std::size_t i = 1; i < gens.size(); ++i) {
    stats.merge(gens[i]->stats());
    flows += gens[i]->flows_started();
  }
  load::TrialResult r;
  r.protocol = t.protocol;
  r.members = t.members;
  r.vips = t.vips;
  r.flows_per_second = t.flows_per_second;
  r.seed = t.seed;
  r.flows = flows;
  r.offered = stats.offered();
  r.answered = stats.answered();
  r.lost = stats.lost();
  r.retries = stats.retries();
  r.availability = stats.availability();
  r.effective_downtime_s = stats.effective_downtime_seconds();
  r.longest_gap_s = sim::to_seconds(stats.longest_response_gap());
  const auto windows = stats.failover_windows(t.window);
  if (!windows.empty()) {
    const load::FailoverWindow& w = windows.front();
    r.p99_before_ms = w.p99_before * 1e3;
    r.p99_after_ms = w.p99_after * 1e3;
    r.p999_before_ms = w.p999_before * 1e3;
    r.p999_after_ms = w.p999_after * 1e3;
  }
  return r;
}

void set_trial_virt(RepResult& r, const load::TrialResult& t) {
  r.trial_json = t.to_json();
  r.virt["interruption_s"] = t.effective_downtime_s;
  r.virt["effective_downtime_s"] = t.effective_downtime_s;
  r.virt["failed_frac"] = t.offered > 0 ? static_cast<double>(t.lost) /
                                              static_cast<double>(t.offered)
                                        : 0;
  r.virt["p999_before_ms"] = t.p999_before_ms;
  r.virt["p999_after_ms"] = t.p999_after_ms;
  r.virt["offered"] = static_cast<double>(t.offered);
  if (t.answered + t.lost != t.offered) {
    r.fail("answered + lost != offered (" + std::to_string(t.answered) +
           " + " + std::to_string(t.lost) + " vs " +
           std::to_string(t.offered) + ")");
  }
}

RepResult load_rep(const Config& cfg, RepKind kind, bool traced) {
  const load::TrialOptions t = trial_options(cfg);
  RepResult r;
  r.ops = 1;
  Recorder rec;

  if (kind == RepKind::kWarmup) {
    load::TrialOptions oracle = t;
    if (oracle.shards > 0) {
      oracle.shards = 1;  // the sequential oracle of the sharded engine
      oracle.shard_threads = false;
    }
    load::TrialResult res;
    rec.phase("trial", [&] { res = load::run_failover_trial(oracle); });
    rec.finish();
    r.spans = rec.spans();
    r.wall_s = rec.wall_s();
    r.coverage = rec.coverage();
    set_trial_virt(r, res);
    r.fingerprint = r.trial_json;
    return r;
  }

  std::unique_ptr<apps::ClusterScenario> s;
  std::vector<load::LoadGenerator*> gens;
  rec.phase("setup", [&] {
    s = std::make_unique<apps::ClusterScenario>(trial_cluster_options(t));
    s->start();
  }, true);
  if (traced) rec.set_snapshot([&] { return snapshot_world(*s, gens, nullptr); });

  bool converged = false;
  rec.phase("converge", [&] {
    converged = s->run_until_stable(sim::seconds(120.0));
    trigger_balance(*s);
    s->run(sim::seconds(2.0));
  });
  r.shape = {t.members, t.vips, s->sched.pending_events()};
  rec.phase("warmup", [&] {
    for (int c = 0; c < s->num_clients(); ++c) {
      auto owned = std::make_unique<load::LoadGenerator>(
          s->client_host(c),
          client_load_options(t, *s, c, s->num_clients()));
      if (s->num_clients() > 1) owned->stats().set_origin(s->sched.now());
      gens.push_back(owned.get());
      s->attach_traffic(std::move(owned));
    }
    s->run(t.warmup);
  });
  int victim = -1;
  rec.phase("fault", [&] {
    victim = s->owner_of(0);
    gens.front()->stats().mark_event(s->sched.now(), "disconnect");
    if (victim >= 0) s->disconnect_server(victim);
    s->run(t.after);
  });
  rec.phase("drain", [&] {
    for (auto* g : gens) g->drain();
    s->run(sim::seconds(2.0));
  });
  rec.finish();
  r.spans = rec.spans();
  r.setup_s = rec.setup_s();
  r.wall_s = rec.wall_s();
  r.coverage = rec.coverage();

  if (!converged) r.fail("world did not converge");
  if (victim < 0) r.fail("VIP 0 had no owner at the fault");
  set_trial_virt(r, trial_result(t, gens));
  r.totals = snapshot_world(*s, gens, nullptr);
  r.fingerprint = r.trial_json + " counts:" + counts_text(r.totals);
  return r;
}

double load_setup_only(const Config& cfg) {
  const double t0 = wall_now();
  auto s = std::make_unique<apps::ClusterScenario>(
      trial_cluster_options(trial_options(cfg)));
  s->start();
  return wall_now() - t0;
}

// --------------------------------------------------- chaos workload ----
//
// Seeds (S-1)*N+1 .. S*N (mod 2^64, so S = 0 is valid) of the cluster
// profile with the --state-faults generator and no shrinking. Measured reps
// recompose chaos::run_seed as its two public steps (generate, execute) so
// each can be timed; the warm-up rep calls run_seed itself and must agree
// exactly. The world of each seed lives inside execute_schedule, so its
// per-layer counts come from the exported event timeline rather than from
// counters.

int chaos_seeds(const Config& cfg) { return cfg.smoke ? 10 : 400; }

std::uint64_t first_chaos_seed(const Config& cfg) {
  return (cfg.seed - 1) * static_cast<std::uint64_t>(chaos_seeds(cfg)) + 1;
}

chaos::CampaignOptions campaign_options() {
  chaos::CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  return opt;
}

/// Event counts of one seed's timeline export. One pass over the events
/// of obs::Event::to_json(): {"seq":N,"t_ns":T,"type":"X","source":"S",
/// "fields":{...}}.
Counts timeline_counts(const std::string& json) {
  static const std::string kType = R"("type":")";
  static const std::string kSource = R"(","source":")";
  std::uint64_t events = 0, views = 0, realloc = 0, balance = 0, acquires = 0,
                releases = 0, applied = 0, resyncs = 0;
  std::uint64_t detected[2] = {0, 0};  // [gcs, wam]
  std::uint64_t heals[2] = {0, 0};
  for (auto pos = json.find(kType); pos != std::string::npos;
       pos = json.find(kType, pos)) {
    ++events;
    pos += kType.size();
    const auto type_end = json.find('"', pos);
    const std::string_view type(json.data() + pos, type_end - pos);
    const bool wam_source =
        json.compare(type_end, kSource.size() + 3, kSource + "wam") == 0;
    const auto fields = json.find('{', type_end);
    pos = type_end;
    if (type == "ViewInstalled") {
      ++views;
    } else if (type == "Reallocation") {
      ++realloc;
    } else if (type == "BalanceRound") {
      ++balance;
    } else if (type == "VipAcquired") {
      ++acquires;
    } else if (type == "VipReleased") {
      ++releases;
    } else if (type == "CorruptionDetected") {
      ++detected[wam_source ? 1 : 0];
    } else if (type == "SelfHeal") {
      ++heals[wam_source ? 1 : 0];
      if (json.compare(fields, 18, R"({"action":"resync")") == 0) ++resyncs;
    } else if (type == "FaultInjected") {
      // Corruption verbs end their fields with "applied":"0|1".
      const auto end = json.find("}}", fields);
      if (end != std::string::npos && end >= 13 &&
          json.compare(end - 13, 13, R"("applied":"1")") == 0) {
        ++applied;
      }
    }
  }
  return Counts{{"obs.timeline_events", events},
                {"obs.timeline_json_bytes", json.size()},
                {"gcs.views_installed", views},
                {"gcs.corruptions_detected", detected[0]},
                {"wam.corruptions_detected", detected[1]},
                {"gcs.self_heals", heals[0]},
                {"wam.self_heals", heals[1]},
                {"wam.resyncs", resyncs},
                {"wam.reallocations", realloc},
                {"wam.balance_rounds", balance},
                {"wam.acquires", acquires},
                {"wam.releases", releases},
                {"chaos.injections_applied", applied}};
}

struct Generated {
  chaos::FaultSchedule schedule;
  std::uint64_t fabric_seed = 0;
  std::string dsl;
};

/// chaos::run_seed's first step: decoupled schedule (stream 1) and fabric
/// (stream 2) seeds, the schedule, and its DSL replay artifact.
Generated generate(std::uint64_t seed, const chaos::CampaignOptions& opt) {
  sim::Rng base(seed);
  auto gen_rng = base.stream(1);
  Generated g;
  g.fabric_seed = base.stream(2).next();
  g.schedule = chaos::generate_cluster_schedule(gen_rng, opt.generator);
  g.dsl = chaos::to_dsl(g.schedule);
  return g;
}

/// Accumulates one rep's per-seed verdicts into virtual metrics.
struct ChaosTally {
  std::vector<double> recon_ms;
  std::vector<std::uint64_t> violating;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  Counts totals;

  void add(std::uint64_t seed, const std::vector<chaos::Violation>& v,
           const std::vector<double>& recon, const std::string& timeline,
           const Counts& counts) {
    if (!v.empty()) violating.push_back(seed);
    for (const auto& x : v) digest = fnv(chaos::to_string(x), digest);
    for (double ms : recon) digest = fnv(std::to_string(ms), digest);
    digest = digest * 31 + std::hash<std::string>{}(timeline);
    recon_ms.insert(recon_ms.end(), recon.begin(), recon.end());
    for (const auto& [k, n] : counts) totals[k] += n;
    totals["chaos.violations"] += v.size();
  }

  void finish(RepResult& r, int seeds) {
    std::sort(recon_ms.begin(), recon_ms.end());
    // Same rank rule as chaos_campaign's reconvergence report.
    auto pct = [&](double q) {
      return recon_ms.empty()
                 ? 0.0
                 : recon_ms[static_cast<std::size_t>(
                       q * static_cast<double>(recon_ms.size() - 1))];
    };
    r.virt["reconverge_p50_ms"] = pct(0.5);
    r.virt["reconverge_p99_ms"] = pct(0.99);
    r.virt["reconverge_samples"] = static_cast<double>(recon_ms.size());
    r.virt["interruption_s"] = pct(0.5) / 1e3;
    r.virt["failed_frac"] =
        static_cast<double>(violating.size()) / static_cast<double>(seeds);
    r.totals = totals;
    std::string fp = "violating:";
    for (auto seed : violating) fp += std::to_string(seed) + ",";
    r.fingerprint = fp + " digest:" + std::to_string(digest) +
                    " counts:" + counts_text(totals);
    r.ops = seeds;
  }
};

RepResult chaos_rep(const Config& cfg, RepKind kind, bool traced) {
  const int seeds = chaos_seeds(cfg);
  const std::uint64_t first = first_chaos_seed(cfg);
  const chaos::CampaignOptions opt = campaign_options();
  RepResult r;
  Recorder rec;
  ChaosTally tally;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(i);
    if (kind == RepKind::kWarmup) {
      chaos::CampaignResult res;
      rec.phase("run_seed", [&] {
        res = chaos::run_seed(seed, chaos::Profile::kCluster, opt);
      });
      tally.add(seed, res.violations, res.reconvergence_ms, res.timeline_json,
                timeline_counts(res.timeline_json));
      continue;
    }
    const std::string detail = "seed " + std::to_string(seed);
    Generated gen;
    rec.phase("generate", [&] { gen = generate(seed, opt); }, true);
    rec.last().detail = detail;
    std::vector<chaos::Violation> violations;
    std::vector<double> recon;
    std::string timeline;
    rec.phase("execute", [&] {
      violations = chaos::execute_schedule(
          gen.schedule, gen.schedule.actions, gen.fabric_seed, &timeline,
          opt.shards, opt.shard_threads, &recon);
    });
    rec.last().detail = detail;
    const Counts counts = timeline_counts(timeline);
    if (traced) {
      rec.last().counts = counts;
      rec.last().counts["chaos.violations"] = violations.size();
    }
    tally.add(seed, violations, recon, timeline, counts);
  }
  rec.finish();
  r.spans = rec.spans();
  r.setup_s = rec.setup_s();
  r.wall_s = rec.wall_s();
  r.coverage = rec.coverage();
  tally.finish(r, seeds);
  if (!traced) return r;
  // Each seed's world lives inside execute_schedule; the unit probes take
  // their pending-event depth from an equally sized converged world.
  apps::ClusterOptions probe_world;
  probe_world.num_servers = opt.generator.num_servers;
  probe_world.num_vips = opt.generator.num_vips;
  probe_world.with_router = false;
  apps::ClusterScenario s(probe_world);
  s.start();
  s.run_until_stable(sim::seconds(8.0));
  r.shape = {probe_world.num_servers, probe_world.num_vips,
             s.sched.pending_events()};
  return r;
}

double chaos_setup_only(const Config& cfg) {
  const chaos::CampaignOptions opt = campaign_options();
  const std::uint64_t first = first_chaos_seed(cfg);
  const double t0 = wall_now();
  for (int i = 0; i < chaos_seeds(cfg); ++i) {
    generate(first + static_cast<std::uint64_t>(i), opt);
  }
  return wall_now() - t0;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"membership_churn", cluster_rep, cluster_setup_only},
      {"vip_rebalance", cluster_rep, cluster_setup_only},
      {"load_75k", load_rep, load_setup_only},
      {"load_75k_sharded4", load_rep, load_setup_only},
      {"chaos_state_faults", chaos_rep, chaos_setup_only},
  };
  return all;
}

}  // namespace e2e
