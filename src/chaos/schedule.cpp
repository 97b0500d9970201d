#include "chaos/schedule.hpp"

#include "util/assert.hpp"

namespace wam::chaos {

namespace {

std::int64_t to_ms(sim::Duration d) { return d.count() / 1'000'000; }

/// Uniform pick from a non-empty vector.
int pick(sim::Rng& rng, const std::vector<int>& from) {
  WAM_EXPECTS(!from.empty());
  return from[rng.below(from.size())];
}

std::vector<int> all_upto(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}

}  // namespace

// ---------------------------------------------------------------- models

ClusterFaultModel::ClusterFaultModel(int num_servers) : n_(num_servers) {
  groups_.push_back(all_upto(n_));
}

void ClusterFaultModel::apply(const FaultAction& a) {
  // Mirrors the defensive no-op semantics of ClusterScenario exactly: the
  // shrinker deletes arbitrary actions, so e.g. a restart whose crash was
  // deleted must be a no-op here too.
  switch (a.kind) {
    case FaultKind::kPartition:
      groups_ = a.groups;
      break;
    case FaultKind::kMerge:
      groups_ = {all_upto(n_)};
      break;
    case FaultKind::kNicDown:
      nic_down_.insert(a.servers[0]);
      break;
    case FaultKind::kNicUp:
      nic_down_.erase(a.servers[0]);
      break;
    case FaultKind::kCrash:
      crashed_.insert(a.servers[0]);
      break;
    case FaultKind::kRestart:
      crashed_.erase(a.servers[0]);
      break;
    case FaultKind::kLeave:
      // graceful_leave only leaves a running, connected daemon.
      if (crashed_.count(a.servers[0]) == 0) left_.insert(a.servers[0]);
      break;
    case FaultKind::kJoin:
      left_.erase(a.servers[0]);
      break;
    case FaultKind::kDrop:
      ++drops_;
      break;
    case FaultKind::kUndrop:
      drops_ = 0;
      break;
    case FaultKind::kLoss:
      loss_ = a.value;
      break;
    case FaultKind::kOsFail:
      if (a.value > 0.0) {
        os_prob_.insert(a.servers[0]);
      } else {
        os_prob_.erase(a.servers[0]);
      }
      break;
    case FaultKind::kOsFailSticky:
      os_sticky_.insert(a.servers[0]);
      break;
    case FaultKind::kArpLose:
      arp_lose_.insert(a.servers[0]);
      break;
    case FaultKind::kOsHeal:
      os_prob_.erase(a.servers[0]);
      os_sticky_.erase(a.servers[0]);
      arp_lose_.erase(a.servers[0]);
      break;
    case FaultKind::kCorruptVipOwner:
    case FaultKind::kCorruptIndex:
    case FaultKind::kStaleIncarnation:
    case FaultKind::kFlipViewId:
    case FaultKind::kReconfigStorm:
      // Transient corruption: the daemon is expected to detect and heal it
      // by itself, so the predicted steady state is unchanged. Modelling
      // them as no-ops also keeps every shrunk subsequence sound.
    case FaultKind::kProbe:
    case FaultKind::kBalance:
    case FaultKind::kStatus:
    case FaultKind::kCoverage:
      break;
  }
}

std::vector<std::vector<int>> ClusterFaultModel::components() const {
  // Partition groups minus NIC-down servers, plus one singleton per
  // NIC-down server: an administratively isolated server forms its own
  // maximal connected component and must cover every VIP alone.
  std::vector<std::vector<int>> out;
  for (const auto& g : groups_) {
    std::vector<int> alive;
    for (int idx : g) {
      if (nic_down_.count(idx) == 0) alive.push_back(idx);
    }
    if (!alive.empty()) out.push_back(std::move(alive));
  }
  for (int idx : nic_down_) out.push_back({idx});
  return out;
}

bool ClusterFaultModel::participant(int i) const {
  return crashed_.count(i) == 0 && left_.count(i) == 0;
}

RouterFaultModel::RouterFaultModel(int num_routers) : n_(num_routers) {}

void RouterFaultModel::apply(const FaultAction& a) {
  switch (a.kind) {
    case FaultKind::kNicDown:
      failed_.insert(a.servers[0]);
      break;
    case FaultKind::kNicUp:
      failed_.erase(a.servers[0]);
      break;
    case FaultKind::kLeave:
      if (failed_.count(a.servers[0]) == 0) left_.insert(a.servers[0]);
      break;
    case FaultKind::kJoin:
      left_.erase(a.servers[0]);
      break;
    case FaultKind::kLoss:
      loss_ = a.value;
      break;
    default:
      break;  // other kinds are not generated for the router profile
  }
}

// ------------------------------------------------------------- generator

namespace {

/// One storm action chosen among the kinds applicable to the model state.
/// `restarted_ms[i]` is the time of server i's last GCS restart: a leave
/// within 3 s of it could race the daemon's 2 s reconnect loop (the live
/// executor would no-op while the model records the departure), so such
/// servers are not leave candidates.
FaultAction pick_cluster_action(sim::Rng& rng, const ClusterFaultModel& model,
                                const std::vector<std::int64_t>& restarted_ms,
                                std::int64_t now_ms, int n, bool os_faults) {
  std::vector<int> nic_up;
  std::vector<int> nic_down;
  std::vector<int> crashed;
  std::vector<int> not_crashed;
  std::vector<int> leavable;
  std::vector<int> joinable;
  std::vector<int> not_sticky;
  std::vector<int> not_arp_lose;
  std::vector<int> os_faulted;
  for (int i = 0; i < n; ++i) {
    (model.nic_down(i) ? nic_down : nic_up).push_back(i);
    (model.crashed(i) ? crashed : not_crashed).push_back(i);
    if (!model.left(i) && !model.crashed(i) &&
        now_ms - restarted_ms[static_cast<std::size_t>(i)] >= 3000) {
      leavable.push_back(i);
    }
    if (model.left(i) && !model.crashed(i)) joinable.push_back(i);
    if (!model.os_sticky(i)) not_sticky.push_back(i);
    if (!model.arp_lose(i)) not_arp_lose.push_back(i);
    if (model.os_prob(i) || model.os_sticky(i) || model.arp_lose(i)) {
      os_faulted.push_back(i);
    }
  }

  std::vector<FaultKind> kinds{FaultKind::kPartition, FaultKind::kMerge,
                               FaultKind::kLoss};
  if (!nic_up.empty()) kinds.push_back(FaultKind::kNicDown);
  if (!nic_down.empty()) kinds.push_back(FaultKind::kNicUp);
  if (!not_crashed.empty()) kinds.push_back(FaultKind::kCrash);
  if (!crashed.empty()) kinds.push_back(FaultKind::kRestart);
  if (!leavable.empty()) kinds.push_back(FaultKind::kLeave);
  if (!joinable.empty()) kinds.push_back(FaultKind::kJoin);
  if (nic_up.size() >= 2) kinds.push_back(FaultKind::kDrop);
  if (os_faults) {
    kinds.push_back(FaultKind::kOsFail);
    if (!not_sticky.empty()) kinds.push_back(FaultKind::kOsFailSticky);
    if (!not_arp_lose.empty()) kinds.push_back(FaultKind::kArpLose);
    if (!os_faulted.empty()) kinds.push_back(FaultKind::kOsHeal);
  }

  FaultAction a;
  a.kind = kinds[rng.below(kinds.size())];
  switch (a.kind) {
    case FaultKind::kPartition: {
      do {
        a.groups.clear();
        auto k = 2 + rng.below(2);  // 2 or 3 groups
        std::vector<std::vector<int>> buckets(k);
        for (int i = 0; i < n; ++i) buckets[rng.below(k)].push_back(i);
        for (auto& b : buckets) {
          if (!b.empty()) a.groups.push_back(std::move(b));
        }
      } while (a.groups.size() < 2);
      break;
    }
    case FaultKind::kNicDown:
      a.servers.push_back(pick(rng, nic_up));
      break;
    case FaultKind::kNicUp:
      a.servers.push_back(pick(rng, nic_down));
      break;
    case FaultKind::kCrash:
      a.servers.push_back(pick(rng, not_crashed));
      break;
    case FaultKind::kRestart:
      a.servers.push_back(pick(rng, crashed));
      break;
    case FaultKind::kLeave:
      a.servers.push_back(pick(rng, leavable));
      break;
    case FaultKind::kJoin:
      a.servers.push_back(pick(rng, joinable));
      break;
    case FaultKind::kDrop: {
      int from = pick(rng, nic_up);
      int to = from;
      while (to == from) to = pick(rng, nic_up);
      a.servers = {from, to};
      break;
    }
    case FaultKind::kLoss:
      // Whole-millesimal probabilities survive the DSL round-trip exactly.
      a.value = static_cast<double>(rng.range(50, 300)) / 1000.0;
      break;
    case FaultKind::kOsFail:
      a.servers.push_back(pick(rng, all_upto(n)));
      a.value = static_cast<double>(rng.range(100, 600)) / 1000.0;
      break;
    case FaultKind::kOsFailSticky:
      a.servers.push_back(pick(rng, not_sticky));
      break;
    case FaultKind::kArpLose:
      a.servers.push_back(pick(rng, not_arp_lose));
      break;
    case FaultKind::kOsHeal:
      a.servers.push_back(pick(rng, os_faulted));
      break;
    default:
      break;
  }
  return a;
}

FaultAction pick_router_action(sim::Rng& rng, const RouterFaultModel& model,
                               int n) {
  std::vector<int> up;
  std::vector<int> down;
  std::vector<int> leavable;
  std::vector<int> joinable;
  for (int i = 0; i < n; ++i) {
    (model.failed(i) ? down : up).push_back(i);
    if (!model.failed(i) && !model.left(i)) leavable.push_back(i);
    if (model.left(i) && !model.failed(i)) joinable.push_back(i);
  }

  std::vector<FaultKind> kinds{FaultKind::kLoss};
  if (!up.empty()) kinds.push_back(FaultKind::kNicDown);
  if (!down.empty()) kinds.push_back(FaultKind::kNicUp);
  if (!leavable.empty()) kinds.push_back(FaultKind::kLeave);
  if (!joinable.empty()) kinds.push_back(FaultKind::kJoin);

  FaultAction a;
  a.kind = kinds[rng.below(kinds.size())];
  switch (a.kind) {
    case FaultKind::kNicDown:
      a.servers.push_back(pick(rng, up));
      break;
    case FaultKind::kNicUp:
      a.servers.push_back(pick(rng, down));
      break;
    case FaultKind::kLeave:
      a.servers.push_back(pick(rng, leavable));
      break;
    case FaultKind::kJoin:
      a.servers.push_back(pick(rng, joinable));
      break;
    case FaultKind::kLoss:
      a.value = static_cast<double>(rng.range(50, 300)) / 1000.0;
      break;
    default:
      break;
  }
  return a;
}

}  // namespace

FaultSchedule generate_cluster_schedule(sim::Rng& rng,
                                        const GeneratorOptions& opt) {
  WAM_EXPECTS(opt.num_servers >= 3);
  const int n = opt.num_servers;
  FaultSchedule s;
  s.num_servers = n;
  s.num_vips = opt.num_vips;
  s.os_faults = opt.os_faults;

  ClusterFaultModel model(n);
  std::vector<std::int64_t> restarted_ms(static_cast<std::size_t>(n), -10000);
  const std::int64_t quiesce_ms = to_ms(opt.quiesce);
  const std::int64_t calm_ms = to_ms(opt.calm);
  std::int64_t cursor = 10'000;  // actions start after initial stabilization
  s.state_faults = opt.state_faults;

  for (int round = 0; round < opt.rounds; ++round) {
    int burst = 1 + static_cast<int>(rng.below(3));
    for (int b = 0; b < burst; ++b) {
      cursor += rng.range(50, 600);
      FaultAction a = pick_cluster_action(rng, model, restarted_ms, cursor, n,
                                          opt.os_faults);
      a.at = sim::milliseconds(cursor);
      if (a.kind == FaultKind::kRestart) {
        restarted_ms[static_cast<std::size_t>(a.servers[0])] = cursor;
      }
      model.apply(a);
      s.actions.push_back(std::move(a));
    }
    // Heal transients before quiescence: the oracle's component prediction
    // is unsound while asymmetric drops, loss or probabilistic enforcement
    // faults are active. (Sticky / arp-lose faults persist: the oracle
    // reasons about those deterministically.)
    if (model.transient_active()) {
      for (auto kind : {FaultKind::kUndrop, FaultKind::kLoss}) {
        cursor += 50;
        FaultAction heal;
        heal.at = sim::milliseconds(cursor);
        heal.kind = kind;
        model.apply(heal);
        s.actions.push_back(std::move(heal));
      }
      for (int i = 0; i < n; ++i) {
        if (!model.os_prob(i)) continue;
        cursor += 50;
        FaultAction heal;
        heal.at = sim::milliseconds(cursor);
        heal.kind = FaultKind::kOsFail;
        heal.servers.push_back(i);
        heal.value = 0.0;
        model.apply(heal);
        s.actions.push_back(std::move(heal));
      }
    }
    // State-corruption shots land AFTER the transient heals, a couple of
    // seconds into the settling window: the corruption hits a cluster that
    // is (re)converging, and the remaining quiescence bounds the window in
    // which the daemon must detect and heal it. RNG draws happen only when
    // state faults are enabled so pre-existing pinned seeds keep consuming
    // the generator stream identically.
    if (opt.state_faults) {
      cursor += rng.range(2000, 4000);
      int shots = 1 + static_cast<int>(rng.below(2));  // 1 or 2 per round
      for (int c = 0; c < shots; ++c) {
        std::vector<int> candidates;
        for (int i = 0; i < n; ++i) {
          // Expected participants whose GCS was not just restarted: the
          // local Wackamole daemon should be connected and non-IDLE, so
          // the injection actually applies and the oracle tracks it.
          if (model.participant(i) &&
              cursor - restarted_ms[static_cast<std::size_t>(i)] >= 3000) {
            candidates.push_back(i);
          }
        }
        if (candidates.empty()) break;
        static constexpr FaultKind kCorruptions[] = {
            FaultKind::kCorruptVipOwner, FaultKind::kCorruptIndex,
            FaultKind::kStaleIncarnation, FaultKind::kFlipViewId,
            FaultKind::kReconfigStorm};
        FaultAction a;
        a.at = sim::milliseconds(cursor);
        a.kind = kCorruptions[rng.below(5)];
        a.servers.push_back(pick(rng, candidates));
        if (a.kind == FaultKind::kCorruptVipOwner ||
            a.kind == FaultKind::kCorruptIndex) {
          a.value = static_cast<double>(rng.below(
              static_cast<std::size_t>(opt.num_vips)));
        }
        model.apply(a);
        s.actions.push_back(std::move(a));
        cursor += rng.range(300, 600);
      }
    }
    s.checkpoints.push_back({sim::milliseconds(cursor + quiesce_ms), false});
    s.checkpoints.push_back(
        {sim::milliseconds(cursor + quiesce_ms + calm_ms), true});
    cursor += quiesce_ms + calm_ms + 500;
  }
  s.horizon = sim::milliseconds(cursor + 1000);
  return s;
}

FaultSchedule generate_router_schedule(sim::Rng& rng,
                                       const GeneratorOptions& opt) {
  WAM_EXPECTS(opt.num_servers >= 2);
  // Paper-sized router deployments: a cluster-sized server count (the
  // default 5) runs three routers, so "router seed N" is one world from
  // every entry point.
  const int n = opt.num_servers > 4 ? 3 : opt.num_servers;
  FaultSchedule s;
  s.num_servers = n;
  s.num_vips = 1;  // one indivisible virtual-router group
  s.router_profile = true;

  RouterFaultModel model(n);
  const std::int64_t quiesce_ms = to_ms(opt.quiesce);
  const std::int64_t calm_ms = to_ms(opt.calm);
  std::int64_t cursor = 10'000;

  for (int round = 0; round < opt.rounds; ++round) {
    int burst = 1 + static_cast<int>(rng.below(2));
    for (int b = 0; b < burst; ++b) {
      cursor += rng.range(50, 600);
      FaultAction a = pick_router_action(rng, model, n);
      a.at = sim::milliseconds(cursor);
      model.apply(a);
      s.actions.push_back(std::move(a));
    }
    if (model.transient_active()) {
      cursor += 50;
      FaultAction heal;
      heal.at = sim::milliseconds(cursor);
      heal.kind = FaultKind::kLoss;
      model.apply(heal);
      s.actions.push_back(std::move(heal));
    }
    s.checkpoints.push_back({sim::milliseconds(cursor + quiesce_ms), false});
    s.checkpoints.push_back(
        {sim::milliseconds(cursor + quiesce_ms + calm_ms), true});
    cursor += quiesce_ms + calm_ms + 500;
  }
  s.horizon = sim::milliseconds(cursor + 1000);
  return s;
}

}  // namespace wam::chaos
