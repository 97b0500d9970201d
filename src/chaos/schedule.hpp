// Randomized fault schedules for the chaos campaign.
//
// A FaultSchedule is data: a list of timed fault actions (partitions,
// merges, NIC faults, daemon crashes, graceful leaves, asymmetric drops,
// loss bursts) interleaved with oracle checkpoints. Schedules are produced
// by a seeded generator — the same (seed, options) pair always yields the
// same schedule — executed by chaos::run_seed() against a ClusterScenario
// or RouterScenario. Its text form is the scenario DSL (chaos/dsl.hpp),
// the replay artifact attached to violations.
//
// The generator interleaves each fault storm with a quiescence window and
// heals transient faults (directional drops, loss bursts) before the
// window starts: under asymmetric connectivity the GCS may legitimately
// split servers of one partition group across views, so the predicted
// components below would be unsound while a transient is active.
//
// ClusterFaultModel / RouterFaultModel replay an action prefix and answer
// the two questions the invariant oracle needs at a checkpoint:
//   - components(): the maximal connected components implied by the
//     injected faults (partition groups minus NIC-down servers, plus one
//     singleton per NIC-down server — an isolated server must cover every
//     VIP alone, Section 3.1);
//   - participant(i): whether server i's Wackamole daemon is expected to
//     manage addresses (its GCS daemon is up and it has not gracefully
//     left).
// Both mirror the defensive no-op semantics of the scenario API, so
// ANY subsequence of a schedule — the shrinker deletes actions — stays
// executable and soundly checkable.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace wam::chaos {

enum class FaultKind {
  kPartition,  // split the cluster segment into groups
  kMerge,      // heal all partitions
  kNicDown,    // administratively down server i's NIC (router: fail host)
  kNicUp,      // bring it back (router: recover host)
  kCrash,      // crash the GCS daemon on server i
  kRestart,    // restart a crashed GCS daemon
  kLeave,      // graceful Wackamole shutdown on server i
  kJoin,       // restart a gracefully-left Wackamole daemon
  kDrop,       // one-way frame drop a -> b (asymmetric fault)
  kUndrop,     // heal all one-way drops
  kLoss,       // random loss burst with probability `value` (0 heals)
  // ---- enforcement-layer faults (the fallible IpManager decorator) ----
  kOsFail,        // server i's acquire/release fails with `value` (0 heals)
  kOsFailSticky,  // server i's acquires fail until kOsHeal (dead NIC)
  kArpLose,       // server i's gratuitous ARPs are silently lost
  kOsHeal,        // clear every enforcement fault on server i
  // ---- transient state corruption (self-stabilization campaign) ----
  // All five are one-shot bit flips the daemons must detect and heal on
  // their own; the fault model treats them as no-ops (the expected steady
  // state is unchanged — that IS the reconvergence property under test).
  kCorruptVipOwner,    // stray write into server i's VIP table (`value` =
                       // group index)
  kCorruptIndex,       // desync server i's member index (`value` = group
                       // index)
  kStaleIncarnation,   // bit-flip server i's cached ViewTag
  kFlipViewId,         // bit-flip the epoch of server i's installed view
  kReconfigStorm,      // three forced rediscoveries in quick succession
  // ---- scenario-only verbs of hand-written scripts ----
  // Never generated; the fault models treat them as no-ops.
  kProbe,     // start the probe client on VIP index `value`
  kBalance,   // ask the first willing daemon for a balance round
  kStatus,    // print server i's AdminControl status
  kCoverage,  // print which server holds each VIP
};

struct FaultAction {
  sim::Duration at{};
  FaultKind kind = FaultKind::kMerge;
  std::vector<int> servers;              // operand server/router indices
  std::vector<std::vector<int>> groups;  // kPartition only
  /// kLoss / kOsFail probability; group index of kCorruptVipOwner /
  /// kCorruptIndex; VIP index of kProbe.
  double value = 0.0;

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// A pause where the campaign asserts Properties 1 and 2.
struct Checkpoint {
  sim::Duration at{};
  /// Second checkpoint of a round: no fault was injected since the
  /// previous one, so a violation here persisted across a quiet window
  /// (the no-regression property).
  bool regression_guard = false;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

struct FaultSchedule {
  int num_servers = 5;
  int num_vips = 7;
  bool router_profile = false;
  /// Generated with enforcement faults: the executor shortens the cluster's
  /// quarantine cooldown and enables periodic announces so fence/unfence
  /// cycles complete within a quiescence window.
  bool os_faults = false;
  /// Generated with state-corruption faults: the executor enables the
  /// wackamole StateAuditor and the GCS ViewAuditor (plus fast resync
  /// backoff) so detection and healing complete within a quiescence
  /// window, and the ReconvergenceOracle tracks every applied injection.
  bool state_faults = false;
  std::vector<FaultAction> actions;      // sorted by `at`, strictly increasing
  std::vector<Checkpoint> checkpoints;   // sorted by `at`
  sim::Duration horizon{};               // run the simulation this far
};

struct GeneratorOptions {
  int num_servers = 5;   // routers for the router profile
  int num_vips = 7;
  int rounds = 4;        // storm/quiesce/checkpoint cycles
  sim::Duration quiesce = sim::seconds(12.0);
  sim::Duration calm = sim::seconds(5.0);
  /// Also generate enforcement-layer faults (osfail / osfail-sticky /
  /// arp-lose / osheal). Off by default so pre-existing pinned seeds keep
  /// consuming the generator stream identically.
  bool os_faults = false;
  /// Also generate transient state-corruption faults (corrupt-vip-owner /
  /// corrupt-index / stale-incarnation / flip-view-id / reconfig-storm).
  /// Off by default for the same stream-stability reason.
  bool state_faults = false;
};

/// Deterministic: the same (rng seed, options) yields the same schedule.
[[nodiscard]] FaultSchedule generate_cluster_schedule(
    sim::Rng& rng, const GeneratorOptions& opt);
[[nodiscard]] FaultSchedule generate_router_schedule(
    sim::Rng& rng, const GeneratorOptions& opt);

class ClusterFaultModel {
 public:
  explicit ClusterFaultModel(int num_servers);

  void apply(const FaultAction& a);

  /// Expected maximal connected components of servers.
  [[nodiscard]] std::vector<std::vector<int>> components() const;
  /// Whether server i's daemon is expected to manage addresses.
  [[nodiscard]] bool participant(int i) const;
  /// A directional drop, loss burst or probabilistic enforcement fault is
  /// active: predictions are unsound, the oracle must skip this checkpoint.
  /// (Sticky and arp-lose faults are NOT transient: their effect on
  /// coverage is deterministic and the oracle reasons about them.)
  [[nodiscard]] bool transient_active() const {
    return drops_ > 0 || loss_ > 0.0 || !os_prob_.empty();
  }
  [[nodiscard]] bool nic_down(int i) const { return nic_down_.count(i) > 0; }
  [[nodiscard]] bool crashed(int i) const { return crashed_.count(i) > 0; }
  [[nodiscard]] bool left(int i) const { return left_.count(i) > 0; }
  /// Probabilistic enforcement fault armed on server i.
  [[nodiscard]] bool os_prob(int i) const { return os_prob_.count(i) > 0; }
  /// Sticky enforcement fault: server i cannot acquire any group until a
  /// kOsHeal, so the oracle tolerates uncovered VIPs only in components
  /// where EVERY participant is sticky.
  [[nodiscard]] bool os_sticky(int i) const {
    return os_sticky_.count(i) > 0;
  }
  [[nodiscard]] bool arp_lose(int i) const { return arp_lose_.count(i) > 0; }

 private:
  int n_;
  std::vector<std::vector<int>> groups_;  // current partition groups
  std::set<int> nic_down_;
  std::set<int> crashed_;
  std::set<int> left_;
  std::set<int> os_prob_;
  std::set<int> os_sticky_;
  std::set<int> arp_lose_;
  int drops_ = 0;
  double loss_ = 0.0;
};

class RouterFaultModel {
 public:
  explicit RouterFaultModel(int num_routers);

  void apply(const FaultAction& a);

  [[nodiscard]] bool failed(int i) const { return failed_.count(i) > 0; }
  [[nodiscard]] bool left(int i) const { return left_.count(i) > 0; }
  [[nodiscard]] bool transient_active() const { return loss_ > 0.0; }
  [[nodiscard]] int num_routers() const { return n_; }

 private:
  int n_;
  std::set<int> failed_;
  std::set<int> left_;
  double loss_ = 0.0;
};

}  // namespace wam::chaos
