// The GCS daemon: partitionable membership, Virtual Synchrony, Agreed
// delivery, and process groups, over the simulated LAN.
//
// Protocol sketch (a compact stand-in for Spread with the same external
// contract, §3.1 of the paper):
//
//   * OPERATIONAL — a coordinator-sequenced total order. Clients hand
//     messages to their daemon; the daemon forwards to the view's
//     sequencer (the lowest DaemonId); the sequencer stamps a per-view
//     sequence number and broadcasts. Receivers deliver contiguously,
//     NACKing gaps. Heartbeats (every heartbeat_timeout) double as the
//     failure detector input and carry delivery watermarks from which the
//     sequencer derives message stability (min delivered across members —
//     everything at or below it may be garbage-collected).
//
//   * FAILURE DETECTION — a per-member deadline of fault_detection_timeout
//     pushed back by every packet from that member. Because heartbeats arrive
//     every heartbeat_timeout, detection lags a crash by
//     [fault_detection - heartbeat, fault_detection], exactly the range
//     discussed with Table 1.
//
//   * MEMBERSHIP CHANGE — on suspicion or on hearing a foreign daemon, a
//     daemon floods DISCOVERY (its id, a proposed epoch, everyone heard so
//     far) and collects for discovery_timeout. A received DISCOVERY that
//     teaches it a new daemon or a higher epoch arms one coalescing timer;
//     kDiscoveryQuiet later it rebroadcasts once with everything learned
//     meanwhile. With its rebroadcast timer, a change so costs O(N)
//     broadcasts, not one per daemon learned. The lowest-id participant
//     then PROPOSEs the view; members ACCEPT carrying their unstable
//     messages and group tables; the coordinator broadcasts INSTALL with
//     the per-old-view union of unstable messages (the Virtual-Synchrony
//     exchange: daemons that transition together first deliver identical
//     message sets) and the merged group table. Any disturbance or timeout
//     restarts discovery with a higher epoch (cascading faults).
//
//   * GROUPS — join/leave are totally ordered control messages (lightweight
//     membership: no daemon reconfiguration, the fast path behind the
//     paper's ~10 ms graceful leave). Group views carry the daemon view id
//     and a per-group sequence number, and member lists are uniquely
//     ordered by (rank of hosting daemon in the view, client id).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/audit.hpp"
#include "gcs/config.hpp"
#include "gcs/groups.hpp"
#include "gcs/message.hpp"
#include "gcs/types.hpp"
#include "net/host.hpp"
#include "obs/observability.hpp"
#include "sim/log.hpp"

namespace wam::gcs {

/// Callbacks a client registers with its local daemon.
struct ClientCallbacks {
  std::function<void(const GroupView&)> on_membership;
  std::function<void(const GroupMessage&)> on_message;
  std::function<void()> on_disconnect;
};

/// Per-daemon statistics; a thin view over registry cells once the daemon
/// is bound to an obs::Observability (see obs/metrics.hpp).
struct DaemonCounters {
  obs::Counter views_installed;
  obs::Counter discoveries_started;
  obs::Counter data_sequenced;
  obs::Counter data_delivered;
  obs::Counter fifo_sent;
  obs::Counter fifo_delivered;
  obs::Counter fifo_dropped_reconfig;
  obs::Counter token_rotations;
  obs::Counter token_retries;
  obs::Counter nacks_sent;
  obs::Counter retransmissions;
  obs::Counter sync_messages_delivered;
  obs::Counter decode_errors;
  obs::Counter corruptions_detected;
  obs::Counter self_heals;

  /// Enumerate (name, field) pairs: the metric names under "gcs/<scope>".
  template <class Self, class Fn>
  static void for_each(Self& self, Fn&& fn) {
    fn("views_installed", self.views_installed);
    fn("discoveries_started", self.discoveries_started);
    fn("data_sequenced", self.data_sequenced);
    fn("data_delivered", self.data_delivered);
    fn("fifo_sent", self.fifo_sent);
    fn("fifo_delivered", self.fifo_delivered);
    fn("fifo_dropped_reconfig", self.fifo_dropped_reconfig);
    fn("token_rotations", self.token_rotations);
    fn("token_retries", self.token_retries);
    fn("nacks_sent", self.nacks_sent);
    fn("retransmissions", self.retransmissions);
    fn("sync_messages_delivered", self.sync_messages_delivered);
    fn("decode_errors", self.decode_errors);
    fn("corruptions_detected", self.corruptions_detected);
    fn("self_heals", self.self_heals);
  }
};

class Daemon {
 public:
  /// The daemon binds UDP `config.port` on `host` interface `ifindex` and
  /// identifies itself by that interface's stationary primary IP.
  Daemon(net::Host& host, Config config, sim::Log* log = nullptr,
         int ifindex = 0);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Route metrics and structured events (ViewInstalled) through a shared
  /// observability context; convention for `scope`: "gcs/s<N>".
  void bind_observability(obs::Observability& obs, std::string scope);
  [[nodiscard]] obs::Observability* observability() const { return obs_; }

  /// Open the socket and begin: a fresh daemon floods discovery to find
  /// peers (or installs a singleton view if alone).
  void start();
  /// Abrupt shutdown: close the socket, kill timers, disconnect clients.
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] DaemonId id() const { return id_; }
  [[nodiscard]] const View& view() const { return view_; }
  [[nodiscard]] bool in_op() const { return state_ == State::kOp; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const DaemonCounters& counters() const { return counters_; }
  [[nodiscard]] const GroupTable& groups() const { return group_table_; }

  // ---- Client session interface (used by gcs::Client) ----
  std::uint32_t register_client(std::string name, ClientCallbacks callbacks);
  void unregister_client(std::uint32_t client);
  void client_join(std::uint32_t client, const std::string& group);
  void client_leave(std::uint32_t client, const std::string& group);
  void client_multicast(std::uint32_t client, const std::string& group,
                        util::Bytes payload,
                        ServiceType service = ServiceType::kAgreed);
  [[nodiscard]] MemberId member_id(std::uint32_t client) const;

  // ---- Self-stabilization (view audit / recovery) ----
  /// True when the live view matches the shadow recorded at install.
  [[nodiscard]] bool view_audit_clean() const {
    return !auditor_.audit(view_, id_).has_value();
  }
  /// Rejoin the membership protocol with a fresh incarnation (used by the
  /// reconfig-storm chaos verb and by the heal path). No-op unless
  /// running and operational; returns whether it fired.
  bool force_rediscovery(const char* reason);
  /// Chaos backdoor: flip one bit of the installed view's epoch — the
  /// transient fault the ViewAuditor exists to catch. No-op unless
  /// running and operational; returns whether it fired.
  bool chaos_flip_view_epoch();

 private:
  enum class State { kOp, kDiscovery, kAwaitInstall };

  struct LocalClient {
    std::string name;
    ClientCallbacks callbacks;
    std::set<std::string> groups;
  };

  // ---- I/O ----
  void on_udp(const net::Host::UdpContext& ctx, const util::SharedBytes& payload);
  void broadcast(const Message& msg);
  void unicast(DaemonId to, const Message& msg);

  // ---- Operational state ----
  void on_heartbeat(const Heartbeat& hb);
  void heartbeat_tick();
  /// Push `member`'s fault deadline to now + fault_detection_timeout.
  void note_alive(DaemonId member);
  /// The fault timer fired: detect the fault, or re-arm for a deadline
  /// that frames heard meanwhile pushed back.
  void fault_check(DaemonId member);
  void on_forward(DataMessage data);
  void sequence_and_broadcast(DataMessage data);
  void on_data(const DataMessage& data);
  void deliver(const DataMessage& data);
  void schedule_nack();
  void nack_tick();
  void on_nack(const Nack& nack);
  void on_fifo_data(const DataMessage& data);
  void deliver_fifo(const DataMessage& data);
  void drain_origin_streams();
  [[nodiscard]] bool causally_ready(const DataMessage& data) const;
  void schedule_fifo_nack();
  void fifo_nack_tick();
  void dispatch_to_clients(const DataMessage& data);
  void dispatch(const DataMessage& data);
  void drain_dispatch(bool force = false);
  void prune_stable(std::uint64_t stable);
  [[nodiscard]] DaemonId sequencer() const;
  [[nodiscard]] bool is_sequencer() const { return sequencer() == id_; }
  void submit(DataMessage data);
  void reforward_pending();

  // ---- Token-ring ordering (OrderingEngine::kTokenRing) ----
  [[nodiscard]] bool token_mode() const {
    return config_.ordering == OrderingEngine::kTokenRing;
  }
  [[nodiscard]] DaemonId ring_successor() const;
  void on_token(Token token);
  void pass_token(Token token);
  void token_retry_tick();

  // ---- Membership protocol ----
  void enter_discovery(const char* reason);
  void discovery_broadcast();
  /// Add `id` to known_ keeping it sorted; true when it was new.
  bool learn(DaemonId id);
  void on_discovery(const Discovery& d);
  void discovery_deadline();
  void on_propose(const Propose& p);
  void send_accept(const ViewId& proposal, DaemonId coordinator);
  void on_accept(const Accept& a);
  void maybe_finish_collect();
  void on_install(const Install& inst);
  void install_view(const Install& inst);
  void install_deadline();
  [[nodiscard]] Accept make_own_accept(const ViewId& proposal) const;

  // ---- Group bookkeeping ----
  void apply_group_control(const DataMessage& data);
  void notify_group(const std::string& group, GroupChangeReason reason);
  void refresh_groups_after_install();
  [[nodiscard]] std::vector<std::uint32_t> local_members_of(
      const std::string& group) const;

  // ---- Self-stabilization ----
  void arm_audit_timer();
  void audit_tick();
  /// Audit the live view against the shadow; on divergence restore the
  /// shadow and re-enter discovery. Returns whether a heal fired.
  bool audit_and_heal();

  net::Host& host_;
  Config config_;
  int ifindex_;
  DaemonId id_;
  sim::Logger log_;
  bool running_ = false;

  State state_ = State::kOp;
  View view_;

  /// One in-order receive stream from one source: the sequencer's agreed
  /// stream, or one origin's FIFO/causal stream.
  struct RecvStream {
    std::uint64_t delivered = 0;   // highest contiguously delivered
    std::uint64_t advertised = 0;  // heard head of the stream (heartbeats)
    std::map<std::uint64_t, DataMessage> buffer;  // received out of order

    /// Deliver `msg` and everything it unblocks, in order, through
    /// `deliver`; buffer it if it is early. True when it was buffered.
    template <class Fn>
    bool accept(const DataMessage& msg, Fn&& deliver);
    /// Append the seqs missing below `hi` to `out`, up to 64 in all.
    void gaps(std::uint64_t hi, std::vector<std::uint64_t>& out) const;
    /// What a NACK asks for: the gaps below max(top of buffer, advertised
    /// head + 1). The head covers a lost tail with no successor.
    [[nodiscard]] std::vector<std::uint64_t> missing() const;
    /// Note a heard stream head; true when we are behind it.
    bool hear(std::uint64_t head) {
      advertised = std::max(advertised, head);
      return advertised > delivered;
    }
  };

  /// A FIFO/causal origin: its stream, and the messages delivered from it
  /// but held until their causal dependencies are dispatched.
  struct Origin {
    RecvStream recv;
    std::uint64_t dispatched = 0;  // last seq handed to clients
    std::deque<DataMessage> held;
  };

  /// Everything that lives for one installed view. install_view() and
  /// start() reset it as one value.
  struct PerView {
    // Total order.
    std::uint64_t next_seq = 1;  // sequencer: next seq to assign
    RecvStream agreed;
    std::uint64_t stable = 0;                      // GC watermark
    std::map<std::uint64_t, DataMessage> store;    // delivered, > stable
    std::deque<DataMessage> dispatch_queue;  // delivered, not dispatched
                                             // (SAFE holds the line)
    std::set<std::pair<std::uint32_t, std::uint64_t>> sequenced;  // dedup
    std::map<DaemonId, std::uint64_t> member_delivered;
    // FIFO/causal: both services share the per-origin streams.
    std::uint64_t fifo_out_seq = 0;                   // our stream
    std::map<std::uint64_t, DataMessage> fifo_store;  // sent, for rexmit
    std::map<DaemonId, Origin> origins;
    // Token ring.
    std::uint64_t last_rotation_seen = 0;
    std::uint64_t prev_token_aru = 0;
    std::optional<Token> last_sent_token;
  };
  PerView pv_;
  std::map<ViewId, std::vector<DataMessage>> preinstall_;  // future-view data
  sim::TimerHandle fifo_nack_timer_;
  sim::TimerHandle token_pass_timer_;
  sim::TimerHandle token_retry_timer_;

  // Outgoing messages not yet seen back in the total order.
  std::deque<DataMessage> pending_out_;
  std::uint64_t next_out_id_ = 1;

  // Failure detection: one deadline per view member, and one timer that
  // fires no later than it. A frame moves only the deadline.
  struct FaultWatch {
    sim::TimePoint deadline;
    sim::TimerHandle timer;
  };
  std::map<DaemonId, FaultWatch> fault_watch_;
  sim::TimerHandle heartbeat_timer_;
  sim::TimerHandle nack_timer_;

  // Discovery / install state.
  std::uint64_t discovery_epoch_ = 0;
  std::vector<DaemonId> known_;  // sorted; sent on the wire as is
  sim::TimerHandle discovery_rebroadcast_timer_;
  sim::TimerHandle discovery_coalesce_timer_;  // kDiscoveryQuiet
  sim::TimerHandle discovery_deadline_timer_;
  sim::TimerHandle install_deadline_timer_;
  std::optional<ViewId> accepted_proposal_;
  bool coordinator_ = false;
  std::vector<DaemonId> proposed_members_;
  std::map<DaemonId, Accept> accepts_;

  // Groups and clients.
  GroupTable group_table_;
  std::map<std::uint32_t, LocalClient> clients_;
  std::uint32_t next_client_id_ = 1;

  // Self-stabilization.
  ViewAuditor auditor_;
  sim::TimerHandle audit_timer_;

  DaemonCounters counters_;
  obs::Observability* obs_ = nullptr;
  std::string_view obs_scope_;  // interned in *obs_
};

}  // namespace wam::gcs
