#include "chaos/oracle.hpp"

#include "chaos/dsl.hpp"
#include "wackamole/audit.hpp"

namespace wam::chaos {

namespace {

std::string component_label(const std::vector<int>& component) {
  std::string out = "{";
  for (std::size_t i = 0; i < component.size(); ++i) {
    if (i > 0) out += ",";
    out += "server" + std::to_string(component[i] + 1);
  }
  return out + "}";
}

void check_daemon_run(wackamole::Daemon& w, const std::string& who,
                      sim::TimePoint now, bool regression_guard,
                      std::vector<Violation>& out) {
  if (w.running() && w.connected() &&
      w.state() == wackamole::WamState::kRun) {
    return;
  }
  Violation v;
  v.kind = Violation::Kind::kNotRun;
  v.at = now;
  v.persisted = regression_guard;
  v.detail = who + " state=" + wackamole::wam_state_name(w.state()) +
             (w.running() ? "" : " (stopped)") +
             (w.connected() ? "" : " (disconnected)") + " for " +
             sim::format_duration(w.time_in_state(now));
  out.push_back(std::move(v));
}

void report_coverage(int count, const std::string& what,
                     const std::string& where, sim::TimePoint now,
                     bool regression_guard, std::vector<Violation>& out) {
  if (count == 1) return;
  Violation v;
  v.kind = count == 0 ? Violation::Kind::kUncovered
                      : Violation::Kind::kConflict;
  v.at = now;
  v.persisted = regression_guard;
  v.detail = what + " covered " + std::to_string(count) + "x in component " +
             where;
  out.push_back(std::move(v));
}

}  // namespace

const char* violation_kind_name(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::kUncovered: return "uncovered";
    case Violation::Kind::kConflict: return "conflict";
    case Violation::Kind::kNotRun: return "not-run";
    case Violation::Kind::kFencedButHeld: return "fenced-but-held";
    case Violation::Kind::kCorruptionUndetected:
      return "corruption-undetected";
    case Violation::Kind::kCorruptionUnhealed: return "corruption-unhealed";
    case Violation::Kind::kResidualCorruption: return "residual-corruption";
  }
  return "?";
}

std::string to_string(const Violation& v) {
  return sim::format_time(v.at) + " [" + violation_kind_name(v.kind) + "] " +
         v.detail + (v.persisted ? " (persisted across quiet window)" : "");
}

void check_cluster_invariants(apps::ClusterScenario& s,
                              const ClusterFaultModel& model,
                              bool regression_guard,
                              std::vector<Violation>& out) {
  if (model.transient_active()) return;
  const auto now = s.sched.now();
  for (const auto& component : model.components()) {
    std::vector<int> participants;
    for (int i : component) {
      if (model.participant(i)) participants.push_back(i);
    }
    // A component whose daemons all crashed or left has nobody obliged to
    // cover anything (Property 1 quantifies over Wackamole participants).
    if (participants.empty()) continue;

    bool all_sticky = true;
    for (int i : participants) {
      check_daemon_run(s.wam(i), "server" + std::to_string(i + 1), now,
                       regression_guard, out);
      if (!model.os_sticky(i)) all_sticky = false;
      // Fence protocol invariant: quarantined means released.
      for (const auto& g : s.wam(i).quarantined_groups()) {
        auto id = wackamole::find_group_id(g);
        if (!id || !s.ip_manager(i).holds(*id)) continue;
        Violation v;
        v.kind = Violation::Kind::kFencedButHeld;
        v.at = now;
        v.persisted = regression_guard;
        v.detail = "server" + std::to_string(i + 1) + " quarantined " + g +
                   " but still holds its addresses";
        out.push_back(std::move(v));
      }
    }
    const auto label = component_label(component);
    for (int k = 0; k < s.options().num_vips; ++k) {
      int count = s.coverage_count(s.vip(k), participants);
      // Quarantine-aware Property 1: an uncovered VIP is tolerable only
      // when no participant's enforcement layer can bind anything.
      if (count == 0 && all_sticky) continue;
      report_coverage(count, s.vip(k).to_string(), label, now,
                      regression_guard, out);
    }
  }
}

void check_router_invariants(apps::RouterScenario& s,
                             const RouterFaultModel& model,
                             bool regression_guard,
                             std::vector<Violation>& out) {
  if (model.transient_active()) return;
  const auto now = s.sched.now();
  // Failed routers are singleton components that legitimately keep their
  // aliases; the interesting component is the surviving fabric.
  std::vector<int> participants;
  for (int i = 0; i < model.num_routers(); ++i) {
    if (!model.failed(i) && !model.left(i)) participants.push_back(i);
  }
  if (participants.empty()) return;

  for (int i : participants) {
    check_daemon_run(s.wam(i), "router" + std::to_string(i + 1), now,
                     regression_guard, out);
  }

  // Property 1 for the indivisible group: exactly one participant holds
  // the WHOLE virtual-router identity, everyone else holds none of it.
  int holders = 0;
  for (int i : participants) {
    if (s.holds_whole_group(i)) {
      ++holders;
    } else if (!s.holds_nothing(i)) {
      Violation v;
      v.kind = Violation::Kind::kConflict;
      v.at = now;
      v.persisted = regression_guard;
      v.detail = "router" + std::to_string(i + 1) +
                 " holds a strict subset of the virtual-router group "
                 "(indivisibility broken)";
      out.push_back(std::move(v));
    }
  }
  report_coverage(holders, "virtual-router group", "{up routers}", now,
                  regression_guard, out);
}

// ------------------------------------------------- reconvergence oracle ----

namespace {

/// Detection and healing may happen in either layer (a flipped view epoch
/// is caught by the GCS ViewAuditor, a corrupt table by the Wackamole
/// StateAuditor), so obligations sum the counters of both daemons.
std::uint64_t detected_count(apps::ClusterScenario& s, int i) {
  return s.wam(i).counters().corruptions_detected.value() +
         s.gcs_daemon(i).counters().corruptions_detected.value();
}

std::uint64_t heal_count(apps::ClusterScenario& s, int i) {
  return s.wam(i).counters().self_heals.value() +
         s.gcs_daemon(i).counters().self_heals.value();
}

}  // namespace

void ReconvergenceOracle::on_applied(apps::ClusterScenario& s,
                                     const FaultAction& a) {
  if (a.kind == FaultKind::kReconfigStorm) return;
  Obligation o;
  o.server = a.servers[0];
  o.at = s.sched.now();
  o.verb = fault_kind_verb(a.kind);
  o.detected0 = detected_count(s, o.server);
  o.heals0 = heal_count(s, o.server);
  pending_.push_back(o);
}

void ReconvergenceOracle::check(apps::ClusterScenario& s,
                                bool regression_guard,
                                std::vector<Violation>& out) {
  const auto now = s.sched.now();
  for (const auto& o : pending_) {
    auto& w = s.wam(o.server);
    if (!w.running() || !w.connected()) {
      // The target crashed or lost its GCS since the injection: its state
      // was (or will be) rebuilt from scratch, so the obligation is moot.
      continue;
    }
    const std::string who = "server" + std::to_string(o.server + 1);
    if (detected_count(s, o.server) == o.detected0) {
      Violation v;
      v.kind = Violation::Kind::kCorruptionUndetected;
      v.at = now;
      v.persisted = regression_guard;
      v.detail = who + ": " + o.verb + " injected at " +
                 sim::format_time(o.at) + " never detected";
      out.push_back(std::move(v));
    } else if (heal_count(s, o.server) == o.heals0) {
      Violation v;
      v.kind = Violation::Kind::kCorruptionUnhealed;
      v.at = now;
      v.persisted = regression_guard;
      v.detail = who + ": " + o.verb + " injected at " +
                 sim::format_time(o.at) + " detected but never healed";
      out.push_back(std::move(v));
    }
  }
  pending_.clear();

  // Residual sweep: Properties 1/2 must not just hold — the guarded state
  // itself must be clean again on every reachable daemon.
  for (int i = 0; i < s.num_servers(); ++i) {
    const std::string who = "server" + std::to_string(i + 1);
    auto& w = s.wam(i);
    if (w.running() && w.connected()) {
      auto findings = wackamole::StateAuditor::audit(w);
      for (const auto& f : findings) {
        Violation v;
        v.kind = Violation::Kind::kResidualCorruption;
        v.at = now;
        v.persisted = regression_guard;
        v.detail = who + " wam audit: " +
                   wackamole::audit_check_name(f.check) +
                   (f.group.empty() ? "" : " " + f.group) + " (" + f.detail +
                   ")";
        out.push_back(std::move(v));
      }
    }
    auto& g = s.gcs_daemon(i);
    if (g.running() && g.in_op() && !g.view_audit_clean()) {
      Violation v;
      v.kind = Violation::Kind::kResidualCorruption;
      v.at = now;
      v.persisted = regression_guard;
      v.detail = who + " gcs view audit not clean";
      out.push_back(std::move(v));
    }
  }
}

void PairPersistenceFilter::apply(bool regression_guard,
                                  std::vector<Violation> found,
                                  std::vector<Violation>& out) {
  for (auto& v : found) {
    if (v.kind == Violation::Kind::kNotRun) {
      // Property 2 carries a stuck-duration in its detail and is not a
      // coverage transient: report immediately.
      out.push_back(std::move(v));
      continue;
    }
    // The detail string is stable across a pair (same VIP, same component:
    // no actions land between the two checkpoints), so it keys the
    // condition.
    std::string key =
        std::string(violation_kind_name(v.kind)) + "|" + v.detail;
    if (!regression_guard) {
      pending_.insert(std::move(key));
    } else if (pending_.count(key) > 0) {
      out.push_back(std::move(v));
    }
  }
  if (regression_guard) pending_.clear();
}

}  // namespace wam::chaos
