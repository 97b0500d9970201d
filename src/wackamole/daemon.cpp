#include "wackamole/daemon.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "wackamole/audit.hpp"

namespace wam::wackamole {

namespace {

/// base * 2^doublings, capped at `cap` (the doubling stops at the cap).
sim::Duration capped_doubling(sim::Duration base, int doublings,
                              sim::Duration cap) {
  for (int i = 0; i < doublings && base < cap; ++i) base += base;
  return std::min(base, cap);
}

}  // namespace

const char* wam_state_name(WamState s) {
  switch (s) {
    case WamState::kIdle: return "IDLE";
    case WamState::kRun: return "RUN";
    case WamState::kGather: return "GATHER";
  }
  return "?";
}

void WamCounters::export_into(obs::MetricRegistry& registry,
                              const std::string& scope) const {
  for_each(*this, [&](const char* name, const obs::Counter& c) {
    registry.counter(scope + "/" + name) = c.value();
  });
}

Daemon::Daemon(sim::Scheduler& sched, Config config, gcs::Daemon& gcs,
               IpManager& ip_manager, sim::Log* log)
    : sched_(sched),
      config_(std::move(config)),
      gcs_(gcs),
      ip_manager_(ip_manager),
      log_(log, "wam/" + gcs.id().to_string()),
      client_("wackamole",
              gcs::ClientCallbacks{
                  [this](const gcs::GroupView& v) { on_membership(v); },
                  [this](const gcs::GroupMessage& m) { on_message(m); },
                  [this] { on_disconnect(); }}),
      groups_(config_.group_names()),
      rng_(gcs.id().value()) {
  config_.validate();
  // Names are unique (validate), so every configured name has exactly one
  // position.
  group_at_.resize(groups_.size());
  config_pos_.reserve(config_.vip_groups.size());
  for (const auto& g : config_.vip_groups) {
    const auto pos = *groups_.position_of(g.id);
    config_pos_.push_back(pos);
    group_at_[pos] = &g;
  }
  pv_.table.set_layout(groups_);
  set_preferences(config_.preferred);
}

void Daemon::bind_observability(obs::Observability& obs, std::string scope) {
  obs_ = &obs;
  obs_scope_ = obs.intern(scope);
  obs::bind_counters(obs.registry, counters_, obs_scope_);
}

void Daemon::emit(obs::EventType type,
                  std::initializer_list<obs::Field> fields) {
  if (obs_ == nullptr) return;
  obs_->emit(sched_.now(), type, obs_scope_, fields);
}

void Daemon::enter_state(WamState next) {
  if (state_ == next) return;
  WamState from = state_;
  state_ = next;
  state_since_ = sched_.now();
  emit(obs::EventType::kStateTransition,
       {{"from", wam_state_name(from)}, {"to", wam_state_name(next)}});
}

void Daemon::arm(sim::TimerHandle& timer, sim::Duration interval,
                 void (Daemon::*tick)()) {
  if (interval == sim::kZero) return;
  timer.cancel();
  timer = sched_.schedule(interval, [this, tick] { (this->*tick)(); });
}

void Daemon::start() {
  WAM_EXPECTS(!running_);
  running_ = true;
  mature_ = config_.maturity_timeout == sim::kZero;
  state_ = WamState::kIdle;
  state_since_ = sched_.now();
  if (client_.connect(gcs_)) {
    client_.join(config_.group);
  } else {
    schedule_reconnect();
  }
  arm(maturity_timer_, config_.maturity_timeout, &Daemon::maturity_tick);
  arm(arp_share_timer_, config_.arp_share_interval, &Daemon::arp_share_tick);
  arm(announce_timer_, config_.announce_interval, &Daemon::announce_tick);
  arm(audit_timer_, gcs::kAuditPeriod, &Daemon::audit_tick);
  log_.info("wackamole starting (%s)", mature_ ? "mature" : "immature");
}

void Daemon::graceful_shutdown() {
  if (!running_) return;
  // Detect-only sweep: corruption present at shutdown is still reported
  // (the final campaign checkpoint reads the counters), but the state is
  // about to be discarded, so nothing is healed.
  run_audit(AuditPoint::kShutdown);
  running_ = false;
  maturity_timer_.cancel();
  arp_share_timer_.cancel();
  announce_timer_.cancel();
  reconnect_timer_.cancel();
  audit_timer_.cancel();
  resync_timer_.cancel();
  resync_pending_ = false;
  // The peer table outlives the shutdown: maturity_tick() reads it, so a
  // restarted daemon whose maturity timeout expires before it rejoins
  // still counts the peers of its last view as mature ones.
  reset_view(std::nullopt, /*keep_peers=*/true);
  for (auto& [pos, p] : pending_releases_) p.timer.cancel();
  pending_releases_.clear();
  for (auto& [name, t] : cooldown_timers_) t.cancel();
  cooldown_timers_.clear();
  if (client_.connected()) {
    // Leaving the group is a lightweight membership change: the survivors
    // reallocate within milliseconds, long before any fault detector would
    // have noticed us missing.
    client_.leave(config_.group);
  }
  release_everything("graceful_shutdown");
  if (client_.connected()) client_.disconnect();
  enter_state(WamState::kIdle);
  log_.info("graceful shutdown complete");
}

std::vector<std::string> Daemon::owned() const {
  // Ascending position is name order.
  std::vector<std::string> out;
  for (std::uint32_t p = 0; p < groups_.size(); ++p) {
    if (ip_manager_.holds(groups_.ids[p])) out.push_back(groups_.names[p]);
  }
  return out;
}

bool Daemon::is_representative() const {
  if (!pv_.view || pv_.view->members.empty() || !client_.connected()) {
    return false;
  }
  return pv_.view->members.front() == client_.self();
}

std::optional<gcs::MemberId> Daemon::self() const {
  if (!client_.connected()) return std::nullopt;
  return client_.self();
}

// ------------------------------------------------------------ callbacks ----

void Daemon::on_membership(const gcs::GroupView& gv) {
  if (!running_) return;
  // EVS transitional signals are informational; the algorithm acts only on
  // regular membership installations (the paper's VIEW_CHANGE events).
  if (gv.transitional) return;
  // Audit BEFORE the wipe below: any corruption still present is detected
  // (and counted) here, never silently erased by the rebuild — the
  // reconvergence oracle's "every injected corruption is detected"
  // obligation holds unconditionally.
  run_audit(AuditPoint::kPreWipe);
  ++counters_.view_changes;
  log_.info("VIEW_CHANGE: %s", gv);
  // Algorithm 1 lines 1-4 / Algorithm 2 lines 7-9: clear the table (the
  // addresses we actually hold are our "old table" knowledge), send a
  // STATE_MSG tagged with the new view, and enter GATHER.
  reset_view(gv);
  // Enter GATHER before multicasting: local delivery is synchronous, so our
  // own STATE_MSG can arrive inside the multicast call below.
  enter_state(WamState::kGather);
  send_state_msg();
}

void Daemon::on_message(const gcs::GroupMessage& gm) {
  if (!running_ || gm.group != config_.group) return;
  // Each entry point that can acquire or announce sends its ARP frames as
  // one burst per NIC.
  IpManager::Burst burst(ip_manager_);
  WamMsgType type;
  try {
    type = peek_type(gm.payload);
  } catch (const util::DecodeError&) {
    log_.warn("undecodable message from %s", gm.sender);
    return;
  }
  try {
    switch (type) {
      case WamMsgType::kStateV2:
        handle_state_msg(gm.sender, decode_state_v2(gm.payload));
        break;
      case WamMsgType::kBalanceV2:
        handle_balance_msg(decode_balance_v2(gm.payload));
        break;
      case WamMsgType::kAllocV2:
        handle_balance_msg(decode_alloc_v2(gm.payload));
        break;
      case WamMsgType::kArpShare: {
        auto share = decode_arp_share(gm.payload);
        if (gm.sender.daemon == gcs_.id()) break;  // our own gossip
        for (auto ip : share.ips) {
          ip_manager_.add_notify_target(net::Ipv4Address(ip));
        }
        break;
      }
      case WamMsgType::kNotify:
        handle_notify(gm.sender, decode_notify(gm.payload));
        break;
      case WamMsgType::kAfterLast_:
        break;  // unreachable: peek_type() rejects out-of-range codes
    }
  } catch (const util::DecodeError&) {
    log_.warn("malformed %d message from %s", static_cast<int>(type),
              gm.sender);
  }
  // Protocol-message boundary: state was just mutated by a handler — the
  // cheapest possible moment to notice a stray write before it propagates
  // into the next outgoing message.
  run_audit(AuditPoint::kBoundary);
}

void Daemon::on_disconnect() {
  if (!running_) return;
  // Pre-wipe audit, same contract as on_membership: detect before the
  // release-everything below discards the evidence.
  run_audit(AuditPoint::kPreWipe);
  ++counters_.disconnects;
  emit(obs::EventType::kDisconnect);
  log_.warn("lost local GCS daemon: releasing all virtual interfaces");
  // Correctness cannot be ensured without the GCS (§4.2): drop everything
  // and retry the connection periodically.
  reset_view(std::nullopt);
  release_everything("gcs_disconnect");
  enter_state(WamState::kIdle);
  schedule_reconnect();
}

void Daemon::reset_view(std::optional<gcs::GroupView> next, bool keep_peers) {
  balance_timer_.cancel();
  // In-flight acquire retries are moot: the next GATHER recomputes the
  // allocation from scratch (quarantine survives — it rides in STATE_MSGs).
  for (auto& [pos, p] : pending_acquires_) p.timer.cancel();
  pending_acquires_.clear();
  // Outside a view the tag is never read: every handler and sender is
  // gated on a state other than IDLE, and the auditor checks the tag only
  // against an installed view.
  pv_.tag = next ? ViewTag::of(*next) : ViewTag{};
  pv_.view = std::move(next);
  pv_.table.clear();
  pv_.received.clear();
  if (!keep_peers) pv_.info.clear();
}

void Daemon::schedule_reconnect() {
  reconnect_timer_.cancel();
  reconnect_timer_ = sched_.schedule(config_.reconnect_interval,
                                     [this] { reconnect_tick(); });
}

void Daemon::reconnect_tick() {
  if (!running_ || client_.connected()) return;
  ++counters_.reconnect_attempts;
  if (gcs_.running() && client_.connect(gcs_)) {
    log_.info("reconnected to GCS daemon");
    client_.join(config_.group);
    return;
  }
  schedule_reconnect();
}

// --------------------------------------------------------- STATE_MSG ----

void Daemon::send_state_msg() {
  StateMsgV2 m;
  m.view = pv_.tag;
  m.mature = mature_;
  m.weight = static_cast<std::uint32_t>(config_.weight);
  // Positions are name-sorted, so the owned list goes out in the same
  // sorted order the string path produced.
  for (std::uint32_t p = 0; p < groups_.size(); ++p) {
    if (ip_manager_.holds(groups_.ids[p])) m.owned.push_back(groups_.ids[p]);
  }
  m.preferred = preferred_ids_;
  m.quarantined.reserve(quarantined_.size());
  for (const auto& name : quarantined_) {
    m.quarantined.push_back(intern_group(name));
  }
  client_.multicast(config_.group, encode_state_v2(m));
  ++counters_.state_msgs_sent;
}

void Daemon::handle_state_msg(const gcs::MemberId& sender,
                              const StateMsgV2& m) {
  if (state_ == WamState::kIdle) return;
  if (m.view != pv_.tag) {
    // Algorithm 2 line 1: only STATE_MSGs generated in the current view
    // count; stale ones are discarded.
    ++counters_.stale_msgs_ignored;
    return;
  }
  ++counters_.state_msgs_received;

  auto& peer = pv_.info[sender];
  peer.mature = m.mature;
  // Clamp to [1, INT_MAX]: a zero weight would starve the sender of every
  // target share, and a u32 past INT_MAX would turn negative in the cast
  // and poison the largest-remainder arithmetic for the whole fleet.
  peer.weight = m.weight == 0 || m.weight > 0x7fffffffu
                    ? 1
                    : static_cast<int>(m.weight);
  peer.preferred = std::set<GroupId>(m.preferred.begin(), m.preferred.end());
  peer.quarantined =
      std::set<GroupId>(m.quarantined.begin(), m.quarantined.end());
  if (m.mature && !mature_) become_mature("mature peer announced itself");

  // ResolveConflicts(): fold the sender's coverage into current_table,
  // dropping overlaps immediately (the earlier member in the membership
  // list releases — restoring network-level consistency ASAP).
  for (auto id : m.owned) {
    auto pos = groups_.position_of(id);
    if (!pos) {
      log_.warn("peer %s claims unknown VIP group '%s'",
                sender, group_name(id));
      continue;
    }
    auto result = pv_.table.claim(id, sender, *pv_.view);
    if (result.dropped && client_.connected() &&
        *result.dropped == client_.self()) {
      log_.info("conflict on %s: releasing (we precede %s in the view)",
                groups_.names[*pos], sender);
      release_group(*pos);
      ++counters_.conflicts_dropped;
    }
  }

  if (state_ == WamState::kGather) {
    pv_.received.insert(sender);
    bool complete = true;
    for (const auto& member : pv_.view->members) {
      if (pv_.received.count(member) == 0) {
        complete = false;
        break;
      }
    }
    if (complete) finish_gather();
  }
}

void Daemon::send_allocation(const Allocation& allocation, bool alloc) {
  BalanceMsgV2 m;
  m.view = pv_.tag;
  m.allocation.reserve(allocation.size());
  for (const auto& [pos, owner] : allocation) {
    m.allocation.emplace_back(
        groups_.ids[pos], std::make_pair(owner.daemon.value(), owner.client));
  }
  client_.multicast(config_.group,
                    alloc ? encode_alloc_v2(m) : encode_balance_v2(m));
}

void Daemon::finish_gather() {
  // Representative mode enters RUN first: its ALLOC self-delivers inside
  // the multicast, and only RUN applies an allocation. Deterministic mode
  // enters RUN once its own acquires are issued.
  auto enter_run = [this] {
    enter_state(WamState::kRun);
    arm(balance_timer_, config_.balance_timeout, &Daemon::balance_tick);
  };
  if (config_.representative_driven) enter_run();
  reallocate(Trigger::kGather);
  if (!config_.representative_driven) enter_run();
}

void Daemon::reallocate(Trigger trigger) {
  const bool gather = trigger == Trigger::kGather;
  const bool representative = config_.representative_driven;
  // §4.2 variant: only the representative decides; everyone else waits
  // for its ALLOC_MSG.
  if (representative && !is_representative()) {
    if (gather) log_.info("GATHER complete: awaiting the representative's "
                          "allocation");
    return;
  }
  // Reallocate_IPs(): every decider computes the same assignment from the
  // same table and the same uniquely ordered member list.
  auto states = member_states();
  auto assignments = reallocate_ips_fast(groups_, pv_.table, states);
  // A GATHER always counts as a reallocation; a NOTIFY pass only when it
  // filled a hole.
  if (!gather && assignments.empty()) return;
  const char* mode = !gather          ? "notify"
                     : representative ? "representative"
                                      : "deterministic";
  if (representative) {
    // Impose the whole table with the holes filled on everyone (ourselves
    // included, via self-delivery). Only configured groups go out: an entry
    // a version-skewed peer's BALANCE left for a group outside our set is
    // not ours to impose.
    Allocation allocation;
    allocation.reserve(groups_.size());
    auto next = assignments.begin();
    for (std::uint32_t p = 0; p < groups_.size(); ++p) {
      if (next != assignments.end() && next->first == p) {
        allocation.emplace_back(p, states[(next++)->second].id);
      } else if (auto owner = pv_.table.owner(groups_.ids[p])) {
        allocation.emplace_back(p, *owner);
      }
    }
    send_allocation(allocation, /*alloc=*/true);
    ++counters_.reallocations;
    emit(obs::EventType::kReallocation,
         {{"groups", allocation.size()}, {"mode", mode}});
  } else {
    for (const auto& [pos, mi] : assignments) {
      pv_.table.set_owner(groups_.ids[pos], states[mi].id);
      if (client_.connected() && states[mi].id == client_.self()) {
        acquire_group(pos);
      }
    }
    ++counters_.reallocations;
    emit(obs::EventType::kReallocation,
         {{"holes", assignments.size()}, {"mode", mode}});
  }
  log_.info("%s reallocation: %zu holes filled, table of %zu groups", mode,
            assignments.size(), pv_.table.size());
}

// --------------------------------------------------------- BALANCE ----

void Daemon::handle_balance_msg(const BalanceMsgV2& m) {
  if (state_ != WamState::kRun || m.view != pv_.tag) {
    // Algorithm 2 lines 10-11: BALANCE_MSGs are ignored during GATHER;
    // stale ones (older views) are ignored everywhere.
    ++counters_.stale_msgs_ignored;
    return;
  }
  ++counters_.balance_applied;
  // Change_IPs(): apply the representative's allocation atomically. The
  // message carries bare (ip, client) owner pairs; MemberId equality
  // deliberately ignores the informational name, so the reconstructed
  // owners still compare equal to client_.self().
  //
  // Start from the current table rather than from scratch: a BALANCE/ALLOC
  // whose allocation omits a configured group (version-skewed or buggy
  // peer) must not silently drop that group's coverage — omitted groups
  // keep their present owner.
  if (!mature_) become_mature("balance implies a bootstrapped cluster");
  VipTable next = pv_.table;
  std::vector<bool> listed(groups_.size(), false);
  for (const auto& [id, owner] : m.allocation) {
    next.set_owner(id, gcs::MemberId{net::Ipv4Address(owner.first),
                                     owner.second, ""});
    if (auto pos = groups_.position_of(id)) listed[*pos] = true;
  }
  for (auto pos : config_pos_) {
    if (!listed[pos]) {
      log_.warn("balance allocation omits group %s: keeping current owner",
                groups_.names[pos]);
    }
  }
  if (client_.connected()) {
    auto me = client_.self();
    for (auto pos : config_pos_) {
      auto owner = next.owner(groups_.ids[pos]);
      bool should_hold = owner && *owner == me;
      bool holds = ip_manager_.holds(groups_.ids[pos]);
      if (should_hold && !holds) acquire_group(pos);
      if (!should_hold && holds) release_group(pos);
    }
  }
  pv_.table = std::move(next);
}

void Daemon::balance_tick() {
  if (!running_ || state_ != WamState::kRun) return;
  if (is_representative()) run_balance();
  arm(balance_timer_, config_.balance_timeout, &Daemon::balance_tick);
}

bool Daemon::run_balance() {
  if (state_ != WamState::kRun || !is_representative()) return false;
  auto states = member_states();
  auto placement = balance_ips_fast(groups_, pv_.table, states);
  if (placement.empty()) return false;
  bool changed = false;
  for (const auto& [pos, mi] : placement) {
    auto current = pv_.table.owner(groups_.ids[pos]);
    if (!current || !(*current == states[mi].id)) {
      changed = true;
      break;
    }
  }
  if (!changed) return false;
  Allocation allocation;
  allocation.reserve(placement.size());
  for (const auto& [pos, mi] : placement) {
    allocation.emplace_back(pos, states[mi].id);
  }
  send_allocation(allocation, /*alloc=*/false);
  ++counters_.balance_rounds;
  emit(obs::EventType::kBalanceRound, {{"groups", allocation.size()}});
  log_.info("representative: broadcasting balance (%zu groups)",
            allocation.size());
  return true;
}

bool Daemon::trigger_balance() { return run_balance(); }

// --------------------------------------------------------- maturity ----

void Daemon::become_mature(const char* how) {
  if (mature_) return;
  mature_ = true;
  maturity_timer_.cancel();
  log_.info("now mature: %s", how);
}

void Daemon::maturity_tick() {
  if (!running_ || mature_) return;
  IpManager::Burst burst(ip_manager_);
  // Anyone mature out there after all? (their STATE_MSG may have raced us)
  for (const auto& [member, peer] : pv_.info) {
    if (peer.mature) {
      become_mature("mature peer known");
      return;
    }
  }
  ++counters_.maturity_timeouts;
  become_mature("maturity timeout expired");
  if (state_ == WamState::kRun && client_.connected()) {
    // Nobody manages the addresses: start managing them (§3.4) and tell
    // the others. Ascending position = sorted name order, as before.
    for (std::uint32_t p = 0; p < groups_.size(); ++p) {
      if (pv_.table.owner(groups_.ids[p])) continue;
      pv_.table.set_owner(groups_.ids[p], client_.self());
      acquire_group(p);
    }
    send_state_msg();
  } else if (state_ == WamState::kGather) {
    // Re-announce with the mature flag; the gather in flight will fold the
    // update in (the received set dedups the sender).
    send_state_msg();
  }
}

// --------------------------------------------------------- ARP share ----

void Daemon::set_arp_share_source(
    std::function<std::vector<std::uint32_t>()> src) {
  arp_share_source_ = std::move(src);
}

void Daemon::announce_tick() {
  if (!running_) return;
  IpManager::Burst burst(ip_manager_);
  // Anti-entropy: gratuitous-ARP refresh for everything we hold, so caches
  // that missed the takeover spoof (lossy LAN) eventually converge.
  for (auto pos : config_pos_) {
    if (ip_manager_.holds(groups_.ids[pos])) {
      ip_manager_.announce(*group_at_[pos]);
    }
  }
  arm(announce_timer_, config_.announce_interval, &Daemon::announce_tick);
}

void Daemon::arp_share_tick() {
  if (!running_) return;
  if (arp_share_source_ && client_.connected() &&
      state_ != WamState::kIdle) {
    ArpShareMsg m;
    m.ips = arp_share_source_();
    if (!m.ips.empty()) {
      client_.multicast(config_.group, encode_arp_share(m));
    }
  }
  arm(arp_share_timer_, config_.arp_share_interval, &Daemon::arp_share_tick);
}

// ------------------------------------------------------------ helpers ----

std::vector<MemberState> Daemon::member_states() const {
  std::vector<MemberState> out;
  if (!pv_.view) return out;
  // §3.4: an immature server that hears a mature server's STATE_MSG in
  // GATHER marks itself mature. Since every member of the view saw the
  // same message set, "anyone mature => everyone mature" is a fact all
  // members can apply deterministically when allocating.
  bool any_mature = false;
  for (const auto& [member, peer] : pv_.info) {
    if (peer.mature) any_mature = true;
  }
  // Ids a peer quarantined may name groups outside our config (version
  // skew); they drop out of the positional sets but still count for the
  // member-is-suspect flag, exactly like the string path did.
  auto positions_of = [&](const std::set<GroupId>& ids) {
    std::vector<std::uint32_t> positions;
    positions.reserve(ids.size());
    for (auto id : ids) {
      if (auto pos = groups_.position_of(id)) positions.push_back(*pos);
    }
    std::sort(positions.begin(), positions.end());
    return positions;
  };
  for (const auto& member : pv_.view->members) {
    MemberState ms;
    ms.id = member;
    auto it = pv_.info.find(member);
    if (it != pv_.info.end()) {
      ms.mature = it->second.mature || any_mature;
      ms.weight = it->second.weight;
      ms.preferred = positions_of(it->second.preferred);
      ms.quarantined = positions_of(it->second.quarantined);
      ms.quarantined_any = !it->second.quarantined.empty();
    }
    out.push_back(std::move(ms));
  }
  return out;
}

void Daemon::acquire_group(std::uint32_t pos) {
  const auto& name = groups_.names[pos];
  if (ip_manager_.holds(groups_.ids[pos])) return;
  auto result = ip_manager_.acquire(*group_at_[pos]);
  if (result.ok()) {
    forget_retry(OsOp::kAcquire, pos);
    ++counters_.acquires;
    emit(obs::EventType::kVipAcquired,
         {{"group", obs::Interned{group_name(groups_.ids[pos])}}});
    log_.info("acquired VIP group %s", name);
    return;
  }
  if (result.status == OsOpStatus::kConflict) {
    // Duplicate-address detection fired: another live host still answers
    // for the address. Don't fight at the ARP layer — the holder's claim
    // surfaces through STATE_MSGs and ResolveConflicts() decides; retry in
    // case the holder is mid-release.
    ++counters_.arp_conflicts;
    emit(obs::EventType::kArpConflict,
         {{"group", obs::Interned{group_name(groups_.ids[pos])}},
          {"detail", result.detail}});
    log_.warn("acquire of %s hit a duplicate address (%s): deferring to "
              "conflict resolution",
              name, result.detail);
  } else {
    ++counters_.acquire_failures;
    log_.warn("acquire of %s failed: %s", name, result.detail);
  }
  retry(OsOp::kAcquire, pos, result);
}

void Daemon::release_group(std::uint32_t pos) {
  const auto& name = groups_.names[pos];
  if (ip_manager_.holds(groups_.ids[pos])) {
    auto result = ip_manager_.release(*group_at_[pos]);
    if (!result.ok()) {
      // A release that fails leaves us still answering for the address,
      // so — unlike acquire — we never give up: retry with the same capped
      // backoff until the unbind sticks.
      log_.warn("release of %s failed: %s", name, result.detail);
      retry(OsOp::kRelease, pos, result);
      return;
    }
    ++counters_.releases;
    emit(obs::EventType::kVipReleased,
         {{"group", obs::Interned{group_name(groups_.ids[pos])}}});
    log_.info("released VIP group %s", name);
  }
  forget_retry(OsOp::kRelease, pos);
}

void Daemon::release_everything(const char* cause) {
  emit(obs::EventType::kPanicRelease,
       {{"cause", cause}, {"held", owned().size()}});
  for (auto pos : config_pos_) release_group(pos);
}

// -------------------------- fallible enforcement: retry / fence / NOTIFY ----

sim::Duration Daemon::backoff_delay(int failed_attempts) {
  auto delay = capped_doubling(config_.acquire_backoff, failed_attempts - 1,
                               config_.acquire_backoff_max);
  if (config_.backoff_jitter > 0.0) {
    double factor = 1.0 - config_.backoff_jitter +
                    2.0 * config_.backoff_jitter * rng_.uniform();
    delay = sim::Duration(static_cast<sim::Duration::rep>(
        static_cast<double>(delay.count()) * factor));
  }
  return delay;
}

void Daemon::retry(OsOp op, std::uint32_t pos, const OsOpResult& result) {
  if (!running_) return;  // a shutdown's releases are final
  const bool acquire = op == OsOp::kAcquire;
  auto& p = pending(op)[pos];
  ++p.attempts;
  if (acquire && p.attempts >= config_.acquire_retry_limit) {
    fence_group(pos, result.detail);
    return;
  }
  ++(acquire ? counters_.acquire_retries : counters_.release_retries);
  auto delay = backoff_delay(p.attempts);
  p.timer.cancel();
  p.timer = sched_.schedule(delay, [this, op, pos] { retry_tick(op, pos); });
  log_.info("retrying %s of %s in %.1fms (attempt %d)",
            acquire ? "acquire" : "release", groups_.names[pos],
            sim::to_millis(delay), p.attempts);
}

void Daemon::retry_tick(OsOp op, std::uint32_t pos) {
  if (!running_) return;
  IpManager::Burst burst(ip_manager_);
  const bool acquire = op == OsOp::kAcquire;
  const auto owner = pv_.table.owner(groups_.ids[pos]);
  const bool ours = client_.connected() && state_ != WamState::kIdle &&
                    owner && *owner == client_.self();
  // Moot once the group already is where the op would put it, or once the
  // table (re)assigns it the other way — a view change or a reassignment
  // while we were backing off.
  if (ip_manager_.holds(groups_.ids[pos]) == acquire || ours != acquire) {
    forget_retry(op, pos);
    return;
  }
  acquire ? acquire_group(pos) : release_group(pos);
}

void Daemon::forget_retry(OsOp op, std::uint32_t pos) {
  auto& ops = pending(op);
  auto it = ops.find(pos);
  if (it == ops.end()) return;
  // Cancel the armed timer too: left to fire, it would act on the next
  // fresh entry for this group one backoff too early.
  it->second.timer.cancel();
  ops.erase(it);
}

void Daemon::fence_group(std::uint32_t pos, const std::string& reason) {
  const auto& name = groups_.names[pos];
  forget_retry(OsOp::kAcquire, pos);
  // Drop whatever partial state the failed acquires left behind. (Sim
  // acquisition is all-or-nothing; real platforms may partially bind.)
  if (ip_manager_.holds(groups_.ids[pos])) {
    release_group(pos);
  } else {
    ip_manager_.release(*group_at_[pos]);
  }
  bool fresh = quarantined_.insert(name).second;
  if (fresh) {
    ++counters_.groups_fenced;
    emit(obs::EventType::kGroupFenced,
         {{"group", obs::Interned{group_name(groups_.ids[pos])}},
          {"reason", reason},
          {"cooldown_ms",
           std::to_string(sim::to_millis(config_.quarantine_cooldown))}});
    log_.warn("self-fencing %s: retry budget exhausted (%s); broadcasting "
              "NOTIFY",
              name, reason);
    // Tell the peers on the agreed stream: they drop our claim and re-run a
    // targeted Reallocate_IPs() excluding us, so coverage migrates now
    // instead of waiting for client-visible death (§4.2 fast path). Our own
    // copy self-delivers, which clears the table entry and folds the
    // quarantine into the peer table exactly like at every peer.
    if (client_.connected() && state_ != WamState::kIdle) {
      send_notify(name, true, reason);
    }
  }
  arm_cooldown(name);
}

void Daemon::send_notify(const std::string& group, bool fenced,
                         const std::string& reason) {
  NotifyMsg m;
  m.view = pv_.tag;
  m.group = group;
  m.fenced = fenced;
  m.cooldown_ms =
      static_cast<std::uint32_t>(sim::to_millis(config_.quarantine_cooldown));
  m.reason = reason;
  client_.multicast(config_.group, encode_notify(m));
  ++counters_.notifies_sent;
}

void Daemon::handle_notify(const gcs::MemberId& sender, const NotifyMsg& m) {
  if (state_ == WamState::kIdle) return;
  if (m.view != pv_.tag) {
    ++counters_.stale_msgs_ignored;
    return;
  }
  ++counters_.notifies_received;
  auto pos = groups_.position_of_name(m.group);
  if (!pos) {
    log_.warn("NOTIFY for unknown VIP group '%s' from %s", m.group, sender);
    return;
  }
  auto id = groups_.ids[*pos];
  auto& peer = pv_.info[sender];
  if (m.fenced) {
    peer.quarantined.insert(id);
    log_.info("%s fenced %s (%s): reallocating around it",
              sender, m.group, m.reason);
    // The fenced member holds the allocation but cannot enforce it: drop
    // its claim and re-run the deterministic reallocation without it.
    auto owner = pv_.table.owner(id);
    if (owner && *owner == sender) pv_.table.clear_owner(id);
    if (state_ == WamState::kRun) reallocate(Trigger::kNotify);
  } else {
    peer.quarantined.erase(id);
    log_.info("%s cleared its quarantine of %s", sender, m.group);
  }
}

void Daemon::arm_cooldown(const std::string& name) {
  auto it = cooldown_timers_.find(name);
  if (it != cooldown_timers_.end()) it->second.cancel();
  cooldown_timers_[name] = sched_.schedule(
      config_.quarantine_cooldown, [this, name] { cooldown_tick(name); });
}

void Daemon::cooldown_tick(const std::string& name) {
  cooldown_timers_.erase(name);
  if (!running_ || quarantined_.count(name) == 0) return;
  if (!client_.connected() || state_ != WamState::kRun) {
    arm_cooldown(name);
    return;
  }
  const auto pos = groups_.position_of_name(name);
  WAM_ASSERT(pos.has_value());
  const auto id = groups_.ids[*pos];
  const auto& group = *group_at_[*pos];
  auto owner = pv_.table.owner(id);
  bool ours_or_hole = !owner || *owner == client_.self();
  IpManager::Burst burst(ip_manager_);
  // Probe the enforcement layer: a real acquire when the group is ours to
  // take (hole, or still nominally ours), a side-effect-free announce when
  // a peer covers it — binding behind the peer's back would split traffic.
  auto result = ours_or_hole ? ip_manager_.acquire(group)
                             : ip_manager_.announce(group);
  if (result.status == OsOpStatus::kFailed) {
    // Fault persists: stay fenced, silently re-arm the cooldown.
    arm_cooldown(name);
    return;
  }
  quarantined_.erase(name);
  ++counters_.groups_unfenced;
  emit(obs::EventType::kGroupUnfenced,
       {{"group", obs::Interned{group_name(id)}}});
  log_.info("quarantine of %s cleared: enforcement layer healthy again",
            name);
  bool claimed = false;
  if (ours_or_hole && result.ok() && ip_manager_.holds(id)) {
    pv_.table.set_owner(id, client_.self());
    ++counters_.acquires;
    emit(obs::EventType::kVipAcquired,
         {{"group", obs::Interned{group_name(id)}}});
    claimed = true;
  }
  send_notify(name, false, "cooldown probe succeeded");
  // A claim must reach the peers' tables: STATE_MSGs fold via claim() in
  // any state, exactly like the maturity bootstrap's announcement.
  if (claimed) send_state_msg();
}

// --------------------------- self-stabilization: audit / heal / resync ----

const char* Daemon::audit_point_name(AuditPoint point) {
  switch (point) {
    case AuditPoint::kTimer: return "timer";
    case AuditPoint::kBoundary: return "boundary";
    case AuditPoint::kPreWipe: return "pre-wipe";
    case AuditPoint::kPreResync: return "pre-resync";
    case AuditPoint::kShutdown: return "shutdown";
  }
  return "?";
}

void Daemon::audit_tick() {
  if (!running_) return;
  run_audit(AuditPoint::kTimer);
  arm(audit_timer_, gcs::kAuditPeriod, &Daemon::audit_tick);
}

void Daemon::run_audit(AuditPoint point) {
  if (!running_ || in_audit_) return;
  // The bounded check runs at every point; the full sweep only when it
  // sees something wrong, and the full sweep's findings drive the heals.
  std::vector<AuditFinding> findings;
  if (!auditor_.check(*this)) findings = StateAuditor::audit(*this);
  if (findings.empty()) {
    // A clean timer sweep a full cap-period after the last resync resets
    // the backoff: the next isolated corruption gets the fast base delay
    // again, while a storm keeps the damping.
    if (point == AuditPoint::kTimer && resync_attempts_ > 0 &&
        !resync_pending_ &&
        sched_.now() - last_resync_at_ >= config_.resync_backoff_max) {
      resync_attempts_ = 0;
    }
    return;
  }
  // Guard: heals below fence/multicast, and local delivery is synchronous —
  // the nested on_message boundary audit must not recurse into run_audit
  // while the state is mid-repair.
  in_audit_ = true;
  ++counters_.corruptions_detected;
  std::string checks;
  for (const auto& f : findings) {
    if (!checks.empty()) checks += ',';
    checks += audit_check_name(f.check);
    log_.warn("state audit [%s] %s%s%s: %s", audit_point_name(point),
              audit_check_name(f.check), f.group.empty() ? "" : " ",
              f.group, f.detail);
  }
  emit(obs::EventType::kCorruptionDetected,
       {{"checks", checks},
        {"count", findings.size()},
        {"at", audit_point_name(point)}});

  if (point == AuditPoint::kShutdown || point == AuditPoint::kPreResync) {
    // Detect-only: the shutdown discards the state anyway, and the resync
    // about to run discards and rebuilds it, counting its own heal.
    in_audit_ = false;
    return;
  }
  if (point == AuditPoint::kPreWipe) {
    // The caller is about to discard and rebuild this exact state (view
    // change wipe or disconnect release): the imminent rebuild IS the
    // heal, and any pending resync is superseded by it.
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal, {{"action", "view-rebuild"}});
    resync_timer_.cancel();
    resync_pending_ = false;
    in_audit_ = false;
    return;
  }

  bool checksum = false;
  bool index = false;
  bool view_tag = false;
  std::vector<GroupId> bogus;
  std::vector<std::string> unknown_quarantine;
  for (const auto& f : findings) {
    switch (f.check) {
      case AuditCheck::kTableChecksum: checksum = true; break;
      case AuditCheck::kTableIndex: index = true; break;
      case AuditCheck::kViewTag: view_tag = true; break;
      case AuditCheck::kOwnerNotInView:
        bogus.push_back(intern_group(f.group));
        break;
      case AuditCheck::kQuarantineUnknown:
        unknown_quarantine.push_back(f.group);
        break;
    }
  }
  if (!unknown_quarantine.empty()) {
    for (const auto& name : unknown_quarantine) {
      quarantined_.erase(name);
      auto it = cooldown_timers_.find(name);
      if (it != cooldown_timers_.end()) {
        it->second.cancel();
        cooldown_timers_.erase(it);
      }
    }
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal,
         {{"action", "drop-unknown-quarantine"},
          {"groups", unknown_quarantine.size()}});
  }
  if (!bogus.empty()) {
    // Identified corrupt entries: drop them, rebuild the derived state
    // (index + checksum), then run the PR-3 fence machinery per group —
    // quarantine + NOTIFY makes the peers reallocate around us NOW, and
    // the cooldown probe clears the fence once the dust settles. The
    // table is consistent again BEFORE the first multicast below (local
    // delivery is synchronous).
    for (auto id : bogus) pv_.table.clear_owner(id);
    pv_.table.rebuild();
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal,
         {{"action", "fence"}, {"groups", bogus.size()}});
    for (auto id : bogus) {
      auto pos = groups_.position_of(id);
      WAM_ASSERT(pos.has_value());
      fence_group(*pos, "state audit: owner not in view");
    }
  }
  if (view_tag || (checksum && bogus.empty())) {
    // No identifiable entry to surgically repair (or the incarnation
    // itself is suspect): discard everything and rebuild from the peers.
    schedule_resync(view_tag ? "view-tag mismatch" : "table checksum");
  } else if (index && bogus.empty() && !checksum) {
    // Index-only drift: the owner map is intact, rebuild the index.
    pv_.table.rebuild();
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal, {{"action", "rebuild-index"}});
  }
  in_audit_ = false;
}

void Daemon::schedule_resync(const std::string& why) {
  if (resync_pending_) return;
  resync_pending_ = true;
  auto delay = capped_doubling(config_.resync_delay, resync_attempts_,
                               config_.resync_backoff_max);
  ++resync_attempts_;
  last_resync_at_ = sched_.now();
  log_.warn("scheduling resync in %.1fms (%s, attempt %d)",
            sim::to_millis(delay), why, resync_attempts_);
  resync_timer_.cancel();
  resync_timer_ = sched_.schedule(delay, [this] { resync_tick(); });
}

void Daemon::resync_tick() {
  resync_pending_ = false;
  if (!running_ || !client_.connected() || state_ == WamState::kIdle) return;
  // Pre-wipe audit, same contract as on_membership: a corruption that
  // arrived after the resync was scheduled is detected before the wipe
  // below discards the evidence.
  run_audit(AuditPoint::kPreResync);
  ++counters_.resyncs;
  ++counters_.self_heals;
  emit(obs::EventType::kSelfHeal,
       {{"action", "resync"}, {"attempt", resync_attempts_}});
  log_.warn("resync: rejoining %s to rebuild state from the peers",
            config_.group);
  last_resync_at_ = sched_.now();
  // Drop the whole client session and rejoin under a FRESH incarnation
  // (new client id), not leave+join under the same identity: the leave
  // and the re-join travel as separate unicasts to the sequencer, and
  // in-flight jitter can invert them — the join would no-op against our
  // still-present membership and the leave would then evict us for good.
  // A fresh identity's join commutes with the old identity's leave, so
  // arrival order cannot matter. The graceful disconnect still leaves the
  // group for the old id, so peers reallocate within milliseconds while
  // we discard every claim we can no longer vouch for; the rejoin
  // installs a fresh view and the normal GATHER rebuilds current_table
  // from the peers' STATE_MSGs. Quarantine deliberately survives — it
  // rides in STATE_MSGs, not in the wiped table.
  client_.disconnect();
  reset_view(std::nullopt);
  release_everything("resync");
  enter_state(WamState::kIdle);
  if (!client_.connect(gcs_)) {
    // The local GCS died between audit and resync: fall back to the
    // standard reconnect loop (on_disconnect-equivalent state).
    schedule_reconnect();
    return;
  }
  client_.join(config_.group);
}

// ------------------------------- chaos backdoors (corruption injection) ----

bool Daemon::chaos_armed() const {
  // Out of IDLE means a view is installed (only on_membership leaves IDLE).
  return running_ && client_.connected() && state_ != WamState::kIdle;
}

bool Daemon::chaos_corrupt_vip_owner(int index) {
  if (!chaos_armed() || config_pos_.empty()) return false;
  auto pos = config_pos_[static_cast<std::size_t>(index) % config_pos_.size()];
  // An identity no view ever contained: trips the checksum, the index
  // agreement AND the owner-not-in-view check.
  gcs::MemberId bogus{net::Ipv4Address(10, 0, 254, 254), 0xC0DE, "bogus"};
  pv_.table.chaos_set_owner_unchecked(groups_.ids[pos], bogus);
  log_.warn("chaos: corrupted owner of %s", groups_.names[pos]);
  return true;
}

bool Daemon::chaos_corrupt_index(int index) {
  if (!chaos_armed() || config_pos_.empty()) return false;
  auto pos = config_pos_[static_cast<std::size_t>(index) % config_pos_.size()];
  gcs::MemberId phantom{net::Ipv4Address(10, 0, 254, 253), 0xBEEF, "phantom"};
  pv_.table.chaos_corrupt_index_entry(groups_.ids[pos], phantom);
  log_.warn("chaos: desynced member index for %s", groups_.names[pos]);
  return true;
}

bool Daemon::chaos_corrupt_view_tag() {
  if (!chaos_armed()) return false;
  pv_.tag.group_seq ^= 0x40;  // single bit flip: the classic soft error
  log_.warn("chaos: flipped view tag to %s", pv_.tag);
  // A flip landing on a still-unhealed earlier flip cancels it: the tag is
  // correct again and there is nothing any detector could ever find.
  // Report not-applied so the oracle records no detection obligation.
  if (pv_.tag == ViewTag::of(*pv_.view)) {
    log_.warn("chaos: double flip restored the view tag — no corruption");
    return false;
  }
  return true;
}

void Daemon::set_preferences(std::vector<std::string> preferred) {
  std::vector<GroupId> ids;
  ids.reserve(preferred.size());
  for (const auto& name : preferred) {
    auto pos = groups_.position_of_name(name);
    WAM_EXPECTS(pos.has_value());
    ids.push_back(groups_.ids[*pos]);
  }
  config_.preferred = std::move(preferred);
  preferred_ids_ = std::move(ids);
}

}  // namespace wam::wackamole
