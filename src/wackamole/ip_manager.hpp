// The IP address control mechanism (Figure 1's third component).
//
// IpManager is the platform abstraction the paper isolates into its
// OS-specific half: acquire/release of virtual interfaces plus ARP-cache
// spoofing. SimIpManager drives a simulated net::Host: on acquisition it
// ARP-probes each address for a duplicate holder, binds the alias,
// broadcasts a gratuitous ARP (updating every LAN host that already cached
// the address) and unicasts spoofed replies at the router(s) and at any
// explicitly registered notify targets (the router application's ARP-share
// list). RecordingIpManager is a test double; FaultyIpManager is a fault
// injecting decorator for the chaos campaign.
//
// Every operation returns an OsOpResult: real deployments fail here
// (EBUSY aliases, dying NICs, lost gratuitous ARPs), and the daemon's
// retry/backoff/self-fence machinery is driven by these results.
//
// holds() is the daemon's per-VIP hot query (every STATE_MSG and
// BALANCE_MSG asks it for every configured group), so it takes an interned
// GroupId and the managers keep their held set as a GroupIdSet bitmap.
// Callers holding a name convert it with find_group_id()/intern_group().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "obs/observability.hpp"
#include "sim/random.hpp"
#include "wackamole/config.hpp"
#include "wackamole/group_ids.hpp"

namespace wam::wackamole {

enum class OsOpStatus : std::uint8_t {
  kOk,
  /// The OS operation itself failed (EBUSY, ENODEV, ...). Retryable.
  kFailed,
  /// Duplicate-address detection: an ARP probe found another live holder.
  /// Nothing was bound; resolution defers to the protocol's deterministic
  /// ResolveConflicts() ordering instead of fighting at the ARP layer.
  kConflict,
};

[[nodiscard]] const char* os_op_status_name(OsOpStatus s);

/// Outcome of one enforcement-layer operation.
struct OsOpResult {
  OsOpStatus status = OsOpStatus::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const { return status == OsOpStatus::kOk; }
  [[nodiscard]] static OsOpResult success() { return {}; }
  [[nodiscard]] static OsOpResult failed(std::string why) {
    return {OsOpStatus::kFailed, std::move(why)};
  }
  [[nodiscard]] static OsOpResult conflict(std::string why) {
    return {OsOpStatus::kConflict, std::move(why)};
  }
};

class IpManager {
 public:
  virtual ~IpManager() = default;
  /// Bind every address of the group and announce ownership. All-or-nothing:
  /// on a non-ok result no address of the group is left bound.
  virtual OsOpResult acquire(const VipGroup& group) = 0;
  /// Unbind every address of the group.
  virtual OsOpResult release(const VipGroup& group) = 0;
  /// Re-announce ownership of an already-held group (periodic refresh,
  /// or after learning of new notify targets).
  virtual OsOpResult announce(const VipGroup& group) = 0;
  /// Whether every address of the group is currently bound here.
  [[nodiscard]] virtual bool holds(GroupId group) const = 0;
  /// Router application: register a host to notify on takeover. Platforms
  /// without ARP-share support ignore this.
  virtual void add_notify_target(net::Ipv4Address /*ip*/) {}
};

class SimIpManager : public IpManager {
 public:
  explicit SimIpManager(net::Host& host) : host_(host) {}

  /// Register the router reachable through `ifindex`; spoofed ARP replies
  /// are unicast at it on every acquisition (Figure 3).
  void set_router(int ifindex, net::Ipv4Address router_ip);
  /// Router application: additional hosts to notify on takeover (§5.2).
  /// Re-adding a target refreshes its TTL timestamp — this is the ONLY
  /// operation that does; announce() sends the target a spoofed reply but
  /// leaves its TTL clock alone, so un-refreshed targets still age out.
  void add_notify_target(net::Ipv4Address ip) override;
  /// Garbage collection for the notify list (the paper's §5.2 future work:
  /// "applying garbage collection techniques to make the ARP spoof
  /// notification more accurately targeted"). Targets not refreshed within
  /// the TTL are dropped; zero (default) keeps them forever.
  void set_notify_target_ttl(sim::Duration ttl) { notify_ttl_ = ttl; }
  [[nodiscard]] std::vector<net::Ipv4Address> notify_targets() const;

  OsOpResult acquire(const VipGroup& group) override;
  OsOpResult release(const VipGroup& group) override;
  OsOpResult announce(const VipGroup& group) override;
  [[nodiscard]] bool holds(GroupId group) const override {
    return held_.contains(group);
  }

  [[nodiscard]] net::Host& host() { return host_; }

  /// Publish ArpAnnounce events and a "held_groups" gauge through a shared
  /// observability context; convention for `scope`: "ip/s<N>".
  void bind_observability(obs::Observability& obs, std::string scope);

 private:
  void expire_notify_targets();
  void update_held_gauge();

  net::Host& host_;
  std::map<int, net::Ipv4Address> routers_;  // ifindex -> router ip
  std::map<net::Ipv4Address, sim::TimePoint> notify_targets_;  // ip -> seen
  sim::Duration notify_ttl_ = sim::kZero;
  GroupIdSet held_;  // its size is the held_groups gauge
  obs::Gauge held_gauge_;
  obs::Observability* obs_ = nullptr;
  std::string_view obs_scope_;
};

/// Fault-injecting decorator around any IpManager, seeded from sim::Rng so
/// chaos campaigns stay deterministic. With every knob at its default the
/// decorator is a pure pass-through and consumes no randomness, keeping
/// pre-existing pinned seeds byte-identical.
///
/// Knobs:
///  * per-op failure probabilities (acquire / release / announce),
///  * sticky failures: a group (or all groups) whose acquire always fails
///    until heal() — models a dead NIC or a persistently EBUSY alias.
///    Sticky state also fails announce() for the group, which the daemon
///    uses as a side-effect-free health probe at quarantine cooldown.
///  * fail_acquires_after(n): the n-th next acquire fails once — for
///    deterministic retry-schedule tests,
///  * arp-lose: announce() succeeds but is silently dropped (the gratuitous
///    ARPs never reach the wire).
class FaultyIpManager : public IpManager {
 public:
  FaultyIpManager(IpManager& inner, std::uint64_t seed)
      : inner_(inner), rng_(seed) {}

  void set_acquire_fail_probability(double p) { acquire_fail_p_ = p; }
  void set_release_fail_probability(double p) { release_fail_p_ = p; }
  void set_announce_fail_probability(double p) { announce_fail_p_ = p; }
  /// All future acquires (and announce-probes) fail until heal().
  void set_sticky_all(bool on) { sticky_all_ = on; }
  /// Acquires of `group` fail until heal() / set_sticky_group(group, false).
  void set_sticky_group(const std::string& group, bool on);
  /// The n-th acquire from now (1 = the next one) fails, once.
  void fail_acquires_after(std::uint32_t n) { fail_after_ = n; }
  void set_arp_lose(bool on) { arp_lose_ = on; }
  /// Clear every fault: probabilities, sticky state, schedules, arp-lose.
  void heal();

  [[nodiscard]] bool sticky(const std::string& group) const {
    return sticky_all_ || sticky_groups_.count(group) > 0;
  }
  [[nodiscard]] bool any_fault_armed() const;
  [[nodiscard]] std::uint64_t failures_injected() const {
    return failures_injected_;
  }

  OsOpResult acquire(const VipGroup& group) override;
  OsOpResult release(const VipGroup& group) override;
  OsOpResult announce(const VipGroup& group) override;
  [[nodiscard]] bool holds(GroupId group) const override {
    return inner_.holds(group);
  }
  void add_notify_target(net::Ipv4Address ip) override {
    inner_.add_notify_target(ip);
  }

 private:
  OsOpResult injected(const char* op, const std::string& group,
                      const char* why);

  IpManager& inner_;
  sim::Rng rng_;
  double acquire_fail_p_ = 0.0;
  double release_fail_p_ = 0.0;
  double announce_fail_p_ = 0.0;
  bool sticky_all_ = false;
  bool arp_lose_ = false;
  std::set<std::string> sticky_groups_;
  std::uint32_t fail_after_ = 0;  // 0 = disarmed; counts down per acquire
  std::uint64_t failures_injected_ = 0;
};

/// Test double: records the operation sequence, holds no real addresses.
/// Results are scripted per-op: push_result() queues the outcome of the
/// next acquire/release/announce (FIFO, shared across op kinds); an empty
/// queue yields success, preserving pre-fallible test behaviour.
class RecordingIpManager : public IpManager {
 public:
  OsOpResult acquire(const VipGroup& group) override;
  OsOpResult release(const VipGroup& group) override;
  OsOpResult announce(const VipGroup& group) override;
  [[nodiscard]] bool holds(GroupId group) const override {
    return held_.contains(group);
  }

  void push_result(OsOpResult r) { scripted_.push_back(std::move(r)); }

  [[nodiscard]] const std::vector<std::string>& ops() const { return ops_; }
  void clear_ops() { ops_.clear(); }

 private:
  OsOpResult next_result();

  std::vector<std::string> ops_;
  GroupIdSet held_;
  std::deque<OsOpResult> scripted_;
};

}  // namespace wam::wackamole
