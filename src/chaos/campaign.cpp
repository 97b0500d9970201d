#include "chaos/campaign.hpp"

#include "apps/cluster_scenario.hpp"
#include "apps/router_scenario.hpp"
#include "util/assert.hpp"

namespace wam::chaos {

namespace {

// Dispatchers mirror ClusterFaultModel/RouterFaultModel::apply exactly:
// every action inapplicable in the current state is a no-op, so shrunk
// subsequences execute cleanly.

void apply_cluster(apps::ClusterScenario& s, const FaultAction& a,
                   ReconvergenceOracle* recon = nullptr) {
  switch (a.kind) {
    case FaultKind::kPartition:
      s.partition(a.groups);
      break;
    case FaultKind::kMerge:
      s.merge();
      break;
    case FaultKind::kNicDown:
      s.disconnect_server(a.servers[0]);
      break;
    case FaultKind::kNicUp:
      s.reconnect_server(a.servers[0]);
      break;
    case FaultKind::kCrash:
      s.crash_daemon(a.servers[0]);
      break;
    case FaultKind::kRestart:
      s.restart_daemon(a.servers[0]);
      break;
    case FaultKind::kLeave: {
      auto& w = s.wam(a.servers[0]);
      if (w.running() && w.connected()) s.graceful_leave(a.servers[0]);
      break;
    }
    case FaultKind::kJoin:
      s.rejoin(a.servers[0]);
      break;
    case FaultKind::kDrop:
      s.block_path(a.servers[0], a.servers[1]);
      break;
    case FaultKind::kUndrop:
      s.clear_blocked_paths();
      break;
    case FaultKind::kLoss:
      s.set_loss(a.value);
      break;
    case FaultKind::kOsFail:
      s.set_os_fail(a.servers[0], a.value);
      break;
    case FaultKind::kOsFailSticky:
      s.set_os_fail_sticky(a.servers[0]);
      break;
    case FaultKind::kArpLose:
      s.set_arp_lose(a.servers[0], true);
      break;
    case FaultKind::kOsHeal:
      s.heal_os(a.servers[0]);
      break;
    // Corruption injections report whether they actually applied (target
    // running, connected, non-IDLE); only applied ones create
    // reconvergence obligations — a no-op corruption obliges nobody.
    case FaultKind::kCorruptVipOwner:
      if (s.corrupt_vip_owner(a.servers[0], static_cast<int>(a.value)) &&
          recon != nullptr) {
        recon->on_applied(s, a);
      }
      break;
    case FaultKind::kCorruptIndex:
      if (s.corrupt_index(a.servers[0], static_cast<int>(a.value)) &&
          recon != nullptr) {
        recon->on_applied(s, a);
      }
      break;
    case FaultKind::kStaleIncarnation:
      if (s.stale_incarnation(a.servers[0]) && recon != nullptr) {
        recon->on_applied(s, a);
      }
      break;
    case FaultKind::kFlipViewId:
      if (s.flip_view_id(a.servers[0]) && recon != nullptr) {
        recon->on_applied(s, a);
      }
      break;
    case FaultKind::kReconfigStorm:
      s.reconfig_storm(a.servers[0]);
      break;
  }
}

void apply_router(apps::RouterScenario& s, const FaultAction& a) {
  switch (a.kind) {
    case FaultKind::kNicDown:
      if (s.router_host(a.servers[0]).is_up()) s.fail_router(a.servers[0]);
      break;
    case FaultKind::kNicUp:
      if (!s.router_host(a.servers[0]).is_up()) {
        s.recover_router(a.servers[0]);
      }
      break;
    case FaultKind::kLeave: {
      auto& w = s.wam(a.servers[0]);
      if (w.running() && w.connected()) s.graceful_leave(a.servers[0]);
      break;
    }
    case FaultKind::kJoin:
      s.rejoin(a.servers[0]);
      break;
    case FaultKind::kLoss:
      s.set_loss(a.value);
      break;
    default:
      break;  // not generated for the router profile
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
    const std::string* kind = e.field("kind");
    const std::string* applied = e.field("applied");
    const std::string* server = e.field("server");
    if (kind == nullptr || applied == nullptr || server == nullptr) continue;
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

  ClusterFaultModel model(schedule.num_servers);
  PairPersistenceFilter pair_filter;
  ReconvergenceOracle recon;
  auto violations = drive(
      s, schedule, actions,
      [&](const FaultAction& a) {
        apply_cluster(s, a, schedule.state_faults ? &recon : nullptr);
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
  PairPersistenceFilter pair_filter;
  return drive(
      s, schedule, actions,
      [&](const FaultAction& a) {
        apply_router(s, a);
        model.apply(a);
      },
      [&](const Checkpoint& cp, std::vector<Violation>& out) {
        if (!schedule.os_faults) {
          check_router_invariants(s, model, cp.regression_guard, out);
          return;
        }
        std::vector<Violation> found;
        check_router_invariants(s, model, cp.regression_guard, found);
        pair_filter.apply(cp.regression_guard, std::move(found), out);
      },
      timeline_json);
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
  r.dsl = to_dsl(r.schedule);
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
    r.shrunk_dsl = to_dsl(mini);
  }
  return r;
}

}  // namespace wam::chaos
