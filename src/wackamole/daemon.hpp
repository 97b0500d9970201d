// The Wackamole daemon: the state synchronization algorithm of Section 3.
//
// State machine (Figure 2):
//
//            VIEW_CHANGE                REALLOCATION COMPLETE
//      RUN ---------------> GATHER -----------------------------> RUN
//       |  ^                  |  ^
//       |  | BALANCE          |  | cascading VIEW_CHANGE:
//       |  | COMPLETE         +--+ clear table, resend STATE_MSG
//       |  |
//       +--+ BALANCE TIMEOUT (representative only)
//
// RUN (Algorithm 1): on VIEW_CHANGE, back up the table, multicast a
//   STATE_MSG tagged with the new view id, move to GATHER; on BALANCE_MSG,
//   Change_IPs() — acquire/release per the representative's allocation.
//
// GATHER (Algorithm 2): fold arriving STATE_MSGs into current_table,
//   resolving conflicts immediately (the claimant earlier in the membership
//   list releases the address — restoring network-level consistency as soon
//   as possible); once a STATE_MSG from every view member has arrived, run
//   the deterministic Reallocate_IPs() and return to RUN. BALANCE_MSGs are
//   ignored. A cascading VIEW_CHANGE clears the table and resends.
//
// BALANCE (Algorithm 3): triggered by a timeout in RUN at the
//   representative (first member of the uniquely ordered list); computes a
//   load- and preference-aware allocation and multicasts BALANCE_MSG. In
//   this event-driven implementation the procedure runs inside a single
//   scheduler event, which gives the atomicity the paper obtains by
//   delaying events.
//
// Maturity bootstrap (§3.4): a daemon starts immature and owns nothing; it
// matures on meeting a mature peer (STATE_MSG or BALANCE_MSG) or when the
// maturity timeout fires, at which point — if still nobody manages the
// addresses — it claims every uncovered group and announces itself.
//
// Disconnection (§4.2): losing the local GCS daemon releases every virtual
// interface at once (correctness cannot be ensured without the GCS) and
// starts a reconnect loop.
//
// Each mechanism exists once. The per-view state (view, tag, table, GATHER
// senders, peer table) is one value that VIEW_CHANGE, disconnect, resync
// and shutdown all reset through reset_view(). GATHER and NOTIFY share one
// reallocate(); every BALANCE and ALLOC goes out through send_allocation().
// Failed acquires and releases share one retry skeleton, and retries and
// resyncs share one capped doubling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/client.hpp"
#include "obs/observability.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "wackamole/balance.hpp"
#include "wackamole/config.hpp"
#include "wackamole/ip_manager.hpp"
#include "wackamole/vip_table.hpp"
#include "wackamole/wire.hpp"

namespace wam::wackamole {

enum class WamState { kIdle, kRun, kGather };

const char* wam_state_name(WamState s);

/// Per-daemon statistics. A thin view: once the daemon is bound to an
/// obs::Observability, every field reads and writes a registry cell under
/// "wam/<scope>/<field>" — the legacy accessors and the metric queries
/// always agree.
struct WamCounters {
  obs::Counter view_changes;
  obs::Counter state_msgs_sent;
  obs::Counter state_msgs_received;
  obs::Counter stale_msgs_ignored;
  obs::Counter reallocations;
  obs::Counter conflicts_dropped;  // claims *we* released on conflict
  obs::Counter acquires;
  obs::Counter releases;
  obs::Counter balance_rounds;    // representative decisions multicast
  obs::Counter balance_applied;   // BALANCE_MSGs executed
  obs::Counter maturity_timeouts;
  obs::Counter reconnect_attempts;
  obs::Counter disconnects;
  obs::Counter acquire_failures;   // OS-op acquire attempts that failed
  obs::Counter acquire_retries;    // backoff retries scheduled
  obs::Counter release_retries;    // failed releases re-scheduled
  obs::Counter arp_conflicts;      // duplicate-address probes that fired
  obs::Counter groups_fenced;      // retry budget exhausted -> NOTIFY fence
  obs::Counter groups_unfenced;    // cooldown probe succeeded -> NOTIFY clear
  obs::Counter notifies_sent;
  obs::Counter notifies_received;
  obs::Counter corruptions_detected;  // audits that found corrupted state
  obs::Counter self_heals;            // heal actions taken on detection
  obs::Counter resyncs;               // leave+rejoin rebuilds executed

  /// Copy current values into `registry` (snapshot for unbound daemons).
  void export_into(obs::MetricRegistry& registry,
                   const std::string& scope) const;

  /// Enumerate (name, field) pairs — the single source of truth for the
  /// field names used by obs::bind_counters(), export_into() and the JSON
  /// renderers.
  template <class Self, class Fn>
  static void for_each(Self& self, Fn&& fn) {
    fn("view_changes", self.view_changes);
    fn("state_msgs_sent", self.state_msgs_sent);
    fn("state_msgs_received", self.state_msgs_received);
    fn("stale_msgs_ignored", self.stale_msgs_ignored);
    fn("reallocations", self.reallocations);
    fn("conflicts_dropped", self.conflicts_dropped);
    fn("acquires", self.acquires);
    fn("releases", self.releases);
    fn("balance_rounds", self.balance_rounds);
    fn("balance_applied", self.balance_applied);
    fn("maturity_timeouts", self.maturity_timeouts);
    fn("reconnect_attempts", self.reconnect_attempts);
    fn("disconnects", self.disconnects);
    fn("acquire_failures", self.acquire_failures);
    fn("acquire_retries", self.acquire_retries);
    fn("release_retries", self.release_retries);
    fn("arp_conflicts", self.arp_conflicts);
    fn("groups_fenced", self.groups_fenced);
    fn("groups_unfenced", self.groups_unfenced);
    fn("notifies_sent", self.notifies_sent);
    fn("notifies_received", self.notifies_received);
    fn("corruptions_detected", self.corruptions_detected);
    fn("self_heals", self.self_heals);
    fn("resyncs", self.resyncs);
  }
};

class Daemon {
 public:
  Daemon(sim::Scheduler& sched, Config config, gcs::Daemon& gcs,
         IpManager& ip_manager, sim::Log* log = nullptr);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Route metrics and structured events through a shared observability
  /// context; `scope` prefixes every metric name and stamps every event
  /// source (convention: "wam/s<N>"). Call before start().
  void bind_observability(obs::Observability& obs, std::string scope);
  [[nodiscard]] obs::Observability* observability() const { return obs_; }
  [[nodiscard]] std::string_view obs_scope() const { return obs_scope_; }

  /// Connect to the local GCS daemon and join the wackamole group.
  void start();
  /// Voluntary departure (§6's graceful-leave experiment): leave the group
  /// so peers reallocate within milliseconds, then release all addresses.
  void graceful_shutdown();
  [[nodiscard]] bool running() const { return running_; }

  // ---- Introspection ----
  [[nodiscard]] WamState state() const { return state_; }
  /// Virtual time of the last Figure-2 state-machine edge (simulation start
  /// if none yet). Lets liveness oracles report how long a daemon has been
  /// stuck outside RUN.
  [[nodiscard]] sim::TimePoint state_since() const { return state_since_; }
  /// Time spent in the current state as of `now`.
  [[nodiscard]] sim::Duration time_in_state(sim::TimePoint now) const {
    return now - state_since_;
  }
  [[nodiscard]] bool mature() const { return mature_; }
  [[nodiscard]] bool connected() const { return client_.connected(); }
  [[nodiscard]] const VipTable& table() const { return pv_.table; }
  [[nodiscard]] const std::optional<gcs::GroupView>& view() const {
    return pv_.view;
  }
  /// The cached tag messages are stamped/filtered with; the StateAuditor
  /// cross-checks it against ViewTag::of(*view()).
  [[nodiscard]] const ViewTag& view_tag() const { return pv_.tag; }
  [[nodiscard]] std::vector<std::string> owned() const;
  /// Groups this daemon has self-fenced (NOTIFY protocol): their OS-level
  /// acquisition kept failing and a peer is expected to cover them. Sorted.
  [[nodiscard]] std::vector<std::string> quarantined_groups() const;
  [[nodiscard]] bool quarantined(const std::string& group) const {
    return quarantined_.count(group) > 0;
  }
  [[nodiscard]] const WamCounters& counters() const { return counters_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] bool is_representative() const;
  [[nodiscard]] std::optional<gcs::MemberId> self() const;

  // ---- Administrative controls (§4.2's input channel) ----
  /// Force a balance round now (no-op unless RUN + representative).
  bool trigger_balance();
  /// Replace the preference list; takes effect from the next STATE_MSG.
  void set_preferences(std::vector<std::string> preferred);
  /// Provide the local ARP-cache contents for the periodic ARP share
  /// (router application); pass nullptr to disable.
  void set_arp_share_source(std::function<std::vector<std::uint32_t>()> src);

  // ---- Chaos backdoors (state-corruption injection; test/campaign use) ----
  // Each models one transient-corruption class and returns whether it was
  // applied: all are no-ops unless the daemon is running, connected and
  // out of IDLE — the states where corrupted state could do damage.
  /// Overwrite the owner of the index-th configured group with a member
  /// that is not in any view, bypassing the table's guards.
  bool chaos_corrupt_vip_owner(int index);
  /// Desync the table's member index for the index-th configured group.
  bool chaos_corrupt_index(int index);
  /// Bit-flip the cached view tag (a stale incarnation: every in-view
  /// message starts looking stale, and ours look stale to the peers).
  bool chaos_corrupt_view_tag();

 private:
  enum class Trigger { kGather, kNotify };  // what a reallocation runs for
  enum class OsOp { kAcquire, kRelease };   // the retried enforcement ops
  /// Where an audit runs from; decides the heal policy (see run_audit).
  enum class AuditPoint { kTimer, kBoundary, kPreWipe, kShutdown };
  /// (GroupSet position, owner) pairs in ascending position, i.e. group-name
  /// order on every member: the form every BALANCE and ALLOC is built from.
  using Allocation = std::vector<std::pair<std::uint32_t, gcs::MemberId>>;

  void on_membership(const gcs::GroupView& gv);
  void on_message(const gcs::GroupMessage& gm);
  void on_disconnect();
  /// Reset the per-view state as one unit to `next` (nullopt: no view),
  /// cancelling the balance timer and pending acquire retries with it.
  void reset_view(std::optional<gcs::GroupView> next, bool keep_peers = false);
  void handle_state_msg(const gcs::MemberId& sender, const StateMsgV2& m);
  void handle_balance_msg(const BalanceMsgV2& m);
  void handle_notify(const gcs::MemberId& sender, const NotifyMsg& m);
  void finish_gather();
  /// Run Reallocate_IPs() over the current holes and act on the result:
  /// deterministically everywhere, or via the representative's ALLOC.
  void reallocate(Trigger trigger);
  void send_state_msg();
  /// Multicast `allocation` as a BALANCE (or, with `alloc`, an ALLOC).
  void send_allocation(const Allocation& allocation, bool alloc);
  void send_notify(const std::string& group, bool fenced,
                   const std::string& reason);
  // The enforcement calls below take GroupSet positions; the group's name
  // is read from groups_.names only for logs, events and the cold fencing
  // state.
  void acquire_group(std::uint32_t pos);
  void release_group(std::uint32_t pos);
  void release_everything(const char* cause);
  // ---- Fallible enforcement: retry / backoff / self-fence ----
  /// Delay before the n-th retry (n = failed attempts so far): exponential
  /// from Config::acquire_backoff, capped, with multiplicative jitter.
  [[nodiscard]] sim::Duration backoff_delay(int failed_attempts);
  /// Count a failed `op` on `pos` and retry it after backoff_delay(); an
  /// acquire whose budget is spent fences the group instead.
  void retry(OsOp op, std::uint32_t pos, const OsOpResult& result);
  void retry_tick(OsOp op, std::uint32_t pos);
  void forget_retry(OsOp op, std::uint32_t pos);
  void fence_group(std::uint32_t pos, const std::string& reason);
  void arm_cooldown(const std::string& name);
  void cooldown_tick(const std::string& name);
  [[nodiscard]] std::vector<MemberState> member_states() const;
  /// (Re)schedule `tick` after `interval`; a zero interval disables it.
  void arm(sim::TimerHandle& timer, sim::Duration interval,
           void (Daemon::*tick)());
  void balance_tick();
  bool run_balance();
  void maturity_tick();
  void arp_share_tick();
  void announce_tick();
  void schedule_reconnect();
  void reconnect_tick();
  // ---- Self-stabilization: audit / heal / resync ----
  static const char* audit_point_name(AuditPoint point);
  void audit_tick();
  void run_audit(AuditPoint point);
  void schedule_resync(const std::string& why);
  void resync_tick();
  [[nodiscard]] bool chaos_armed() const;  // the backdoors' shared guard
  void become_mature(const char* how);
  /// Switch the Figure-2 state machine, publishing a StateTransition event.
  void enter_state(WamState next);
  void emit(obs::EventType type, std::initializer_list<obs::Field> fields = {});

  sim::Scheduler& sched_;
  Config config_;
  gcs::Daemon& gcs_;
  IpManager& ip_manager_;
  sim::Logger log_;
  gcs::Client client_;

  bool running_ = false;
  WamState state_ = WamState::kIdle;
  sim::TimePoint state_since_{};
  bool mature_ = false;

  /// The configured VIP set in dense positional form (built once — the
  /// group list is fixed for the daemon's lifetime). All protocol-layer
  /// work runs on interned ids/positions; names reappear only in logs,
  /// events, NOTIFY and the cold fencing state.
  GroupSet groups_;
  std::vector<const VipGroup*> group_at_;  // GroupSet position -> group
  std::vector<std::uint32_t> config_pos_;  // vip_groups order -> position
  std::vector<GroupId> preferred_ids_;     // config_.preferred order
  struct PeerInfo {
    bool mature = false;
    int weight = 1;
    std::set<GroupId> preferred;
    std::set<GroupId> quarantined;  // learned via NOTIFY / STATE_MSG
  };
  /// Everything one installed view owns, reset as a unit by reset_view()
  /// (like gcs::Daemon::PerView).
  struct PerView {
    std::optional<gcs::GroupView> view;
    ViewTag tag;     // stamped on and checked against every message
    VipTable table;  // current_table
    std::set<gcs::MemberId> received;  // STATE_MSG senders this GATHER
    std::map<gcs::MemberId, PeerInfo> info;
  };
  PerView pv_;

  /// Per-group OS-op retry state (acquire and release paths), keyed by
  /// GroupSet position.
  struct PendingOp {
    int attempts = 0;  // failed attempts so far
    sim::TimerHandle timer;
  };
  std::map<std::uint32_t, PendingOp> pending_acquires_;
  std::map<std::uint32_t, PendingOp> pending_releases_;
  std::map<std::uint32_t, PendingOp>& pending(OsOp op) {
    return op == OsOp::kAcquire ? pending_acquires_ : pending_releases_;
  }
  // Cold fencing state stays name-keyed: the name order of quarantined_
  // is the order STATE_MSG carries it in.
  std::set<std::string> quarantined_;  // groups we self-fenced
  std::map<std::string, sim::TimerHandle> cooldown_timers_;
  sim::Rng rng_;  // backoff jitter (seeded from the GCS daemon identity)

  sim::TimerHandle balance_timer_;
  sim::TimerHandle maturity_timer_;
  sim::TimerHandle arp_share_timer_;
  sim::TimerHandle announce_timer_;
  sim::TimerHandle reconnect_timer_;
  sim::TimerHandle audit_timer_;
  sim::TimerHandle resync_timer_;
  bool in_audit_ = false;       // reentrancy guard: heals multicast
  bool resync_pending_ = false;
  int resync_attempts_ = 0;     // drives the capped exponential backoff
  sim::TimePoint last_resync_at_{};
  std::function<std::vector<std::uint32_t>()> arp_share_source_;

  WamCounters counters_;
  obs::Observability* obs_ = nullptr;
  std::string_view obs_scope_;  // interned in *obs_
};

}  // namespace wam::wackamole
