// The deterministic allocation procedures of the Wackamole algorithm:
// Reallocate_IPs() (run by every member at the end of GATHER) and
// Balance_IPs() (run by the representative on the balance timeout).
//
// Both are pure functions of (the complete VIP set, the synchronized
// current_table, the uniquely ordered member list with maturity and
// preferences). Determinism is what makes the distributed decision safe:
// every member computes the same answer from the same inputs (Lemma 1/2).
//
// Two API levels live here. The string-keyed reallocate_ips()/balance_ips()
// keep the original signatures and are what tests and casual callers use.
// Underneath they delegate to the *_fast() id-keyed procedures, which run
// on dense position arrays over a GroupSet and replace the old O(V*M)
// scan-every-member-per-group loops with a lazy-deletion min-heap:
// O((V+M)*log M) placement plus O(P*log V) preference indexing. The fast
// path reproduces the reference decisions byte-for-byte (see
// balance_legacy.hpp and tests/wam_balance_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gcs/types.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/vip_table.hpp"

namespace wam::wackamole {

/// Per-member knowledge gathered from STATE_MSGs, in membership-list order.
struct MemberInfo {
  gcs::MemberId id;
  bool mature = false;
  int weight = 1;  // relative capacity (balance targets are proportional)
  std::set<std::string> preferred;
  /// Groups this member has self-fenced (NOTIFY protocol): its enforcement
  /// layer cannot bind them. A non-empty set marks the whole member
  /// suspect, so both procedures hand new groups to quarantine-free
  /// members first (overloading them past their balance target if need
  /// be), then to members fenced only for OTHER groups, and force-assign a
  /// group to a member fenced for it only when every mature member is —
  /// someone must keep retrying rather than leave the address permanently
  /// dark. Groups a member already holds are kept on the per-group rule
  /// alone: bindings that stuck before the fence stay put.
  std::set<std::string> quarantined;
};

/// MemberInfo translated onto a GroupSet: preference and quarantine sets
/// become sorted canonical-position vectors, queried by binary search.
struct MemberState {
  gcs::MemberId id;
  bool mature = false;
  int weight = 1;
  std::vector<std::uint32_t> preferred;    ///< canonical positions, sorted
  std::vector<std::uint32_t> quarantined;  ///< canonical positions, sorted
  /// Fenced for ANY group — including groups outside the set. This is the
  /// strictness-2 "member is suspect" signal and must not be derived from
  /// `quarantined` above, which only covers in-set groups.
  bool quarantined_any = false;
};

/// Translate gathered MemberInfo onto `groups`. Preferences and
/// quarantines naming groups outside the set are dropped (they can never
/// be queried), except through MemberState::quarantined_any.
std::vector<MemberState> to_member_states(
    const GroupSet& groups, const std::vector<MemberInfo>& members);

/// Fast-path result: (group position, index into the members vector)
/// pairs in ascending position — i.e. group-name — order.
using Placement = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Reallocate_IPs() on the dense representation: assignments for the
/// previously-uncovered groups only; empty if no member is mature.
Placement reallocate_ips_fast(const GroupSet& groups, const VipTable& table,
                              const std::vector<MemberState>& members);

/// Balance_IPs() on the dense representation: a complete allocation of
/// every position; empty if no member is mature.
Placement balance_ips_fast(const GroupSet& groups, const VipTable& table,
                           const std::vector<MemberState>& members);

/// Reallocate_IPs(): assign every uncovered group to exactly one mature
/// member. Scoring favours (a) members that listed the group as preferred,
/// (b) members with the lowest current load, (c) membership-list order.
/// Returns the assignments for previously-uncovered groups only; returns
/// empty if no member is mature (the bootstrap situation of §3.4).
std::map<std::string, gcs::MemberId> reallocate_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members);

/// Balance_IPs(): the representative's load-based re-allocation. Produces a
/// complete allocation in which every mature member's share is
/// proportional to its capacity weight (within one group), moving as few
/// groups as possible from the current table and honouring preferences
/// where it can.
std::map<std::string, gcs::MemberId> balance_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members);

/// Largest load difference between two mature members under `table`
/// (diagnostic used by benches and tests).
std::size_t load_imbalance(const VipTable& table,
                           const std::vector<MemberInfo>& members);

}  // namespace wam::wackamole
