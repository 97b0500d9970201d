// Wackamole configuration.
//
// A cluster covers a set of virtual IP addresses organized into VIP GROUPS:
// indivisible sets of addresses that always move together (Section 5.2 —
// a virtual router must hold its address on every attached network
// simultaneously). Web-cluster deployments simply use one group per VIP.
//
// Every daemon must be configured with the same vip_groups; preferences are
// per-server and propagate through state messages.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"
#include "wackamole/group_ids.hpp"

namespace wam::wackamole {

/// One indivisible unit of fail-over: a named set of (address, interface)
/// pairs owned by exactly one server at a time.
struct VipGroup {
  VipGroup(std::string group_name,
           std::vector<std::pair<net::Ipv4Address, int>> group_addresses = {})
      : name(std::move(group_name)),
        addresses(std::move(group_addresses)),
        id(intern_group(name)) {}

  std::string name;
  /// (virtual address, interface index it lives on).
  std::vector<std::pair<net::Ipv4Address, int>> addresses;
  /// intern_group(name), fixed with the name at construction: the per-VIP
  /// enforcement paths key on it instead of re-interning the name. A group
  /// is renamed by constructing a new one, never by assigning `name`.
  GroupId id;
};

struct Config {
  /// The complete set I of virtual addresses, identical across the cluster.
  std::vector<VipGroup> vip_groups;
  /// Names of groups this server prefers to own (paper §3.4: "explicit
  /// preferences specified by each server at startup").
  std::vector<std::string> preferred;
  /// Relative capacity weight for load balancing (a weight-2 server aims
  /// for twice the VIPs of a weight-1 server). Propagated via STATE_MSGs
  /// like preferences.
  int weight = 1;

  /// GCS process group name.
  std::string group = "wackamole";

  /// Re-balancing trigger period in the RUN state (§3.4). Zero disables.
  sim::Duration balance_timeout = sim::seconds(60.0);
  /// Bootstrap maturity timeout (§3.4): an immature server that meets no
  /// mature peer starts managing addresses after this delay. Zero starts
  /// the daemon mature (no bootstrap optimization).
  sim::Duration maturity_timeout = sim::seconds(30.0);
  /// Retry period for reconnecting to a dead local GCS daemon (§4.2).
  sim::Duration reconnect_interval = sim::seconds(2.0);
  /// Router application: period for sharing local ARP-cache knowledge so
  /// peers know whom to notify on takeover (§5.2). Zero disables.
  sim::Duration arp_share_interval = sim::kZero;
  /// Periodically re-announce held addresses (gratuitous ARP refresh); an
  /// anti-entropy measure against lost spoof packets. Zero disables.
  sim::Duration announce_interval = sim::kZero;
  /// §4.2: "all decisions are made by a deterministically chosen
  /// representative and imposed upon the other daemons, rather than made
  /// independently by each daemon through a deterministic decision
  /// process." When true, Reallocate_IPs() runs only at the representative,
  /// whose ALLOC_MSG carries the full assignment to everyone else.
  bool representative_driven = false;

  // ---- Fallible enforcement layer (OS-op retry / self-fence) ----
  /// Failed acquire attempts tolerated per group before self-fencing
  /// (NOTIFY protocol). Counts the initial attempt: 4 = initial + 3 retries.
  int acquire_retry_limit = 4;
  /// Base delay of the exponential acquire/release backoff: the n-th retry
  /// waits base * 2^(n-1), capped at acquire_backoff_max.
  sim::Duration acquire_backoff = sim::milliseconds(100);
  sim::Duration acquire_backoff_max = sim::seconds(2.0);
  /// Multiplicative jitter: each backoff delay is scaled by a uniform draw
  /// from [1 - jitter, 1 + jitter]. Zero disables (exact schedules in
  /// tests).
  double backoff_jitter = 0.2;
  /// How long a self-fenced group stays quarantined before the daemon
  /// probes the enforcement layer again and, on success, broadcasts a
  /// NOTIFY clear.
  sim::Duration quarantine_cooldown = sim::seconds(30.0);

  // ---- Self-stabilization (state audit / recovery) ----
  // The StateAuditor always runs, every gcs::kAuditPeriod (audit.hpp).
  /// Base delay before a corruption-triggered resync (leave + rejoin of
  /// the group to rebuild state from peers' STATE_MSGs). Consecutive
  /// resyncs back off exponentially from this base...
  sim::Duration resync_delay = sim::seconds(1.0);
  /// ...capped here, damping reconfiguration storms: a daemon whose state
  /// keeps corrupting converges to one membership change per cap period.
  sim::Duration resync_backoff_max = sim::seconds(30.0);

  /// Sorted group names (the canonical iteration order of set I).
  [[nodiscard]] std::vector<std::string> group_names() const;
  [[nodiscard]] const VipGroup* find_group(const std::string& name) const;
  /// Throws ContractViolation on duplicate group names / addresses or an
  /// empty group.
  void validate() const;

  /// Convenience: one single-address group per VIP on interface `ifindex`
  /// (the web-cluster deployment of Figure 3).
  static Config web_cluster(const std::vector<net::Ipv4Address>& vips,
                            int ifindex = 0);
};

}  // namespace wam::wackamole
