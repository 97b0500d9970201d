#include "chaos/campaign.hpp"

#include <memory>

#include "apps/cluster_scenario.hpp"
#include "apps/router_scenario.hpp"
#include "net/trace.hpp"
#include "util/assert.hpp"

namespace wam::chaos {

namespace {

/// The `coverage` report: which up servers hold each VIP.
void print_coverage(apps::ClusterScenario& s, std::ostream& out) {
  for (int k = 0; k < s.options().num_vips; ++k) {
    std::string owners;
    for (int i = 0; i < s.num_servers(); ++i) {
      const auto& host = s.server_host(i);
      if (host.is_up() && host.owns_ip(s.vip(k))) owners += " " + host.name();
    }
    out << "    " << s.vip(k).to_string() << " ->"
        << (owners.empty() ? " (unreachable)" : owners) << "\n";
  }
}

// The dispatchers: one scenario call per kind. The scenario API makes every
// action inapplicable in the current state a no-op, exactly as
// ClusterFaultModel/RouterFaultModel::apply assume, so shrunk subsequences
// execute cleanly. `out` receives the status/coverage reports of
// hand-written scenarios.

void apply_cluster(apps::ClusterScenario& s, const FaultAction& a,
                   ReconvergenceOracle* recon, std::ostream* out) {
  const int i = a.servers.empty() ? -1 : a.servers[0];
  // Corruption injections report whether they actually applied (target
  // running, connected, non-IDLE); only applied ones create
  // reconvergence obligations — a no-op corruption obliges nobody.
  auto injected = [&](bool applied) {
    if (applied && recon != nullptr) recon->on_applied(s, a);
  };
  switch (a.kind) {
    case FaultKind::kPartition: s.partition(a.groups); break;
    case FaultKind::kMerge: s.merge(); break;
    case FaultKind::kNicDown: s.disconnect_server(i); break;
    case FaultKind::kNicUp: s.reconnect_server(i); break;
    case FaultKind::kCrash: s.crash_daemon(i); break;
    case FaultKind::kRestart: s.restart_daemon(i); break;
    case FaultKind::kLeave: s.graceful_leave(i); break;
    case FaultKind::kJoin: s.rejoin(i); break;
    case FaultKind::kDrop: s.block_path(i, a.servers[1]); break;
    case FaultKind::kUndrop: s.clear_blocked_paths(); break;
    case FaultKind::kLoss: s.set_loss(a.value); break;
    case FaultKind::kOsFail: s.set_os_fail(i, a.value); break;
    case FaultKind::kOsFailSticky: s.set_os_fail_sticky(i); break;
    case FaultKind::kArpLose: s.set_arp_lose(i, true); break;
    case FaultKind::kOsHeal: s.heal_os(i); break;
    case FaultKind::kCorruptVipOwner:
      injected(s.corrupt_vip_owner(i, static_cast<int>(a.value)));
      break;
    case FaultKind::kCorruptIndex:
      injected(s.corrupt_index(i, static_cast<int>(a.value)));
      break;
    case FaultKind::kStaleIncarnation: injected(s.stale_incarnation(i)); break;
    case FaultKind::kFlipViewId: injected(s.flip_view_id(i)); break;
    case FaultKind::kReconfigStorm: s.reconfig_storm(i); break;
    case FaultKind::kProbe: s.start_probe(static_cast<int>(a.value)); break;
    case FaultKind::kBalance:
      for (int k = 0; k < s.num_servers(); ++k) {
        if (s.wam(k).trigger_balance()) break;
      }
      break;
    case FaultKind::kStatus:
      if (out) *out << wackamole::AdminControl(s.wam(i)).execute("status");
      break;
    case FaultKind::kCoverage:
      if (out) print_coverage(s, *out);
      break;
  }
}

void apply_router(apps::RouterScenario& s, const FaultAction& a) {
  switch (a.kind) {
    case FaultKind::kNicDown: s.fail_router(a.servers[0]); break;
    case FaultKind::kNicUp: s.recover_router(a.servers[0]); break;
    case FaultKind::kLeave: s.graceful_leave(a.servers[0]); break;
    case FaultKind::kJoin: s.rejoin(a.servers[0]); break;
    case FaultKind::kLoss: s.set_loss(a.value); break;
    default: break;  // not generated for the router profile
  }
}

/// Step the scheduler through the merged (action, checkpoint) timeline.
/// `Scenario` provides sched/timeline; `Apply` and `Check` close over the
/// profile-specific scenario and fault model.
template <class Scenario, class Apply, class Check>
std::vector<Violation> drive(Scenario& s, const FaultSchedule& schedule,
                             const std::vector<FaultAction>& actions,
                             const Apply& apply, const Check& check,
                             std::string* timeline_json) {
  std::vector<Violation> violations;
  std::size_t ai = 0;
  std::size_t ci = 0;
  while (ai < actions.size() || ci < schedule.checkpoints.size()) {
    const bool take_action =
        ai < actions.size() &&
        (ci >= schedule.checkpoints.size() ||
         actions[ai].at <= schedule.checkpoints[ci].at);
    if (take_action) {
      // advance_to quiesces the world first (all shard clocks equal on the
      // sharded engine), so faults always apply at a barrier.
      s.advance_to(sim::TimePoint(actions[ai].at));
      apply(actions[ai]);
      ++ai;
    } else {
      s.advance_to(sim::TimePoint(schedule.checkpoints[ci].at));
      check(schedule.checkpoints[ci], violations);
      ++ci;
    }
  }
  s.advance_to(sim::TimePoint(schedule.horizon));
  if (timeline_json) *timeline_json = s.timeline.to_json();
  return violations;
}

/// Reconvergence windows, measured from the event timeline: for every
/// applied corruption injection, the time to the target server's first
/// SelfHeal (in either layer) at or after it. Unhealed injections are the
/// oracle's business; here they simply contribute no sample.
void extract_reconvergence_ms(const obs::EventTimeline& timeline,
                              std::vector<double>& out) {
  const auto& events = timeline.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.type != obs::EventType::kFaultInjected) continue;
    const auto kind = e.field("kind");
    const auto applied = e.field("applied");
    const auto server = e.field("server");
    if (!kind || !applied || !server) continue;
    if (*applied != "1") continue;
    if (*kind != "corrupt_vip_owner" && *kind != "corrupt_index" &&
        *kind != "stale_incarnation" && *kind != "flip_view_id") {
      continue;
    }
    const std::string wam_scope = "wam/" + *server;
    const std::string gcs_scope = "gcs/" + *server;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto& h = events[j];
      if (h.type != obs::EventType::kSelfHeal) continue;
      if (h.source != wam_scope && h.source != gcs_scope) continue;
      out.push_back(sim::to_millis(h.time - e.time));
      break;
    }
  }
}

/// Step a started cluster world through `actions` and the schedule's
/// checkpoints, judged by the campaign's fault model and oracles.
/// `narrate` (hand-written scenarios) gets a line per action plus the
/// status/coverage reports.
std::vector<Violation> run_cluster(apps::ClusterScenario& s,
                                   const FaultSchedule& schedule,
                                   const std::vector<FaultAction>& actions,
                                   std::string* timeline_json,
                                   std::ostream* narrate) {
  ClusterFaultModel model(schedule.num_servers);
  PairPersistenceFilter pair_filter;
  ReconvergenceOracle recon;
  return drive(
      s, schedule, actions,
      [&](const FaultAction& a) {
        if (narrate != nullptr) {
          *narrate << "t=" << sim::to_seconds(a.at) << "s  "
                   << fault_kind_verb(a.kind) << "\n";
        }
        apply_cluster(s, a, schedule.state_faults ? &recon : nullptr,
                      narrate);
        model.apply(a);
      },
      [&](const Checkpoint& cp, std::vector<Violation>& out) {
        if (schedule.state_faults) {
          // Reconvergence obligations bypass the pair filter: they are
          // judged exactly once, at the first checkpoint after injection.
          recon.check(s, cp.regression_guard, out);
        }
        if (!schedule.os_faults && !schedule.state_faults) {
          check_cluster_invariants(s, model, cp.regression_guard, out);
          return;
        }
        // Fault-injection runs: coverage violations must persist across
        // the checkpoint pair — a hole inside one retry/fence/NOTIFY
        // window is bounded convergence, not a bug.
        std::vector<Violation> found;
        check_cluster_invariants(s, model, cp.regression_guard, found);
        pair_filter.apply(cp.regression_guard, std::move(found), out);
      },
      timeline_json);
}

std::vector<Violation> execute_cluster(const FaultSchedule& schedule,
                                       const std::vector<FaultAction>& actions,
                                       std::uint64_t fabric_seed,
                                       std::string* timeline_json, int shards,
                                       bool shard_threads,
                                       std::vector<double>* reconvergence_ms) {
  apps::ClusterOptions copts;
  copts.num_servers = schedule.num_servers;
  copts.num_vips = schedule.num_vips;
  copts.with_router = false;
  copts.shards = shards;
  copts.shard_threads = shard_threads;
  copts.balance_timeout = sim::seconds(15.0);  // let balance interleave
  copts.seed = fabric_seed;
  if (schedule.os_faults || schedule.state_faults) {
    // Fence/unfence cycles must complete within a quiescence window: the
    // cooldown probe fires before the checkpoint, and periodic announces
    // exercise the arp-lose path. State-fault heals reuse the same fence
    // machinery, so they need the same knobs. Untouched for pre-existing
    // schedules.
    copts.quarantine_cooldown = sim::seconds(10.0);
    copts.announce_interval = sim::seconds(2.0);
  }
  if (schedule.state_faults) {
    // Detection and healing must also complete within the window: audit
    // every 250 ms, resync after 500 ms with the backoff capped at 4 s.
    copts.audit_interval = sim::milliseconds(250);
    copts.resync_delay = sim::milliseconds(500);
    copts.resync_backoff_max = sim::seconds(4.0);
    copts.gcs.audit_interval = sim::milliseconds(250);
  }
  apps::ClusterScenario s(copts);
  s.start();
  s.run_until_stable(sim::seconds(8.0));  // actions start at t = 10 s
  auto violations = run_cluster(s, schedule, actions, timeline_json, nullptr);
  if (reconvergence_ms != nullptr && schedule.state_faults) {
    extract_reconvergence_ms(s.timeline, *reconvergence_ms);
  }
  return violations;
}

std::vector<Violation> execute_router(const FaultSchedule& schedule,
                                      const std::vector<FaultAction>& actions,
                                      std::uint64_t fabric_seed,
                                      std::string* timeline_json) {
  apps::RouterScenarioOptions ropts;
  ropts.num_routers = schedule.num_servers;
  ropts.seed = fabric_seed;
  apps::RouterScenario s(ropts);
  s.start();
  s.run(sim::seconds(8.0));

  RouterFaultModel model(schedule.num_servers);
  return drive(
      s, schedule, actions,
      [&](const FaultAction& a) {
        apply_router(s, a);
        model.apply(a);
      },
      [&](const Checkpoint& cp, std::vector<Violation>& out) {
        check_router_invariants(s, model, cp.regression_guard, out);
      },
      timeline_json);
}

/// The replay artifact: the schedule's DSL with the fabric seed after its
/// `chaos` line.
std::string artifact(const FaultSchedule& schedule,
                     std::uint64_t fabric_seed) {
  std::string dsl = to_dsl(schedule);
  dsl.insert(dsl.find('\n') + 1,
             "seed " + std::to_string(fabric_seed) + "\n");
  return dsl;
}

}  // namespace

const char* profile_name(Profile p) {
  return p == Profile::kCluster ? "cluster" : "router";
}

std::vector<Violation> execute_schedule(
    const FaultSchedule& schedule, const std::vector<FaultAction>& actions,
    std::uint64_t fabric_seed, std::string* timeline_json, int shards,
    bool shard_threads, std::vector<double>* reconvergence_ms) {
  WAM_EXPECTS(shards >= 1);
  return schedule.router_profile
             ? execute_router(schedule, actions, fabric_seed, timeline_json)
             : execute_cluster(schedule, actions, fabric_seed, timeline_json,
                               shards, shard_threads, reconvergence_ms);
}

CampaignResult run_seed(std::uint64_t seed, Profile profile,
                        const CampaignOptions& opt) {
  // Decoupled streams: schedule generation (1) and fabric jitter (2), so
  // replaying a shrunk action list keeps identical network timing.
  sim::Rng base(seed);
  auto gen_rng = base.stream(1);
  const std::uint64_t fabric_seed = base.stream(2).next();

  CampaignResult r;
  r.seed = seed;
  r.profile = profile;
  r.schedule = profile == Profile::kCluster
                   ? generate_cluster_schedule(gen_rng, opt.generator)
                   : generate_router_schedule(gen_rng, opt.generator);
  r.dsl = artifact(r.schedule, fabric_seed);
  r.violations =
      execute_schedule(r.schedule, r.schedule.actions, fabric_seed,
                       &r.timeline_json, opt.shards, opt.shard_threads,
                       &r.reconvergence_ms);

  if (!r.passed() && opt.shrink) {
    auto still_fails = [&](const std::vector<FaultAction>& candidate) {
      return !execute_schedule(r.schedule, candidate, fabric_seed, nullptr,
                               opt.shards, opt.shard_threads)
                  .empty();
    };
    auto shrunk = shrink_schedule(r.schedule.actions, still_fails,
                                  opt.shrink_max_evals);
    r.shrunk_actions = std::move(shrunk.actions);
    r.shrink_evaluations = shrunk.evaluations;
    FaultSchedule mini = r.schedule;
    mini.actions = r.shrunk_actions;
    r.shrunk_dsl = artifact(mini, fabric_seed);
  }
  return r;
}

std::vector<Violation> run_dsl(const DslScript& script, std::ostream& out,
                               std::string* timeline_json,
                               std::size_t trace_tail) {
  FaultSchedule schedule = script.schedule;
  std::vector<Violation> violations;
  if (script.chaos) {
    out << "chaos replay: " << (schedule.router_profile ? "router" : "cluster")
        << " profile, " << schedule.actions.size() << " actions, "
        << schedule.checkpoints.size() << " checks, seed " << script.world.seed
        << "\n";
    violations = execute_schedule(schedule, schedule.actions,
                                  script.world.seed, timeline_json);
  } else {
    // The trace outlives the scenario: daemons still send frames through
    // the fabric's tap while the scenario is torn down.
    std::unique_ptr<net::FrameTrace> trace;
    apps::ClusterScenario s(script.world);
    if (trace_tail > 0) {
      trace = std::make_unique<net::FrameTrace>(s.sched, s.fabric, trace_tail);
    }
    s.start();
    s.run_until_stable(sim::seconds(60.0));
    out << "cluster up: " << schedule.num_servers << " servers, "
        << schedule.num_vips << " VIPs\n";
    schedule.checkpoints.push_back({schedule.horizon, false});  // the end
    violations =
        run_cluster(s, schedule, schedule.actions, timeline_json, &out);
    out << "final coverage:\n";
    print_coverage(s, out);
    if (!s.traffic().empty()) {
      out << "traffic: " << s.traffic_report().summary() << "\n";
    }
    if (trace) {
      out << "\nlast " << trace->size() << " frames:\n" << trace->dump();
    }
  }
  for (const auto& v : violations) out << "  " << to_string(v) << "\n";
  out << "violations: " << violations.size() << "\n";
  return violations;
}

}  // namespace wam::chaos
