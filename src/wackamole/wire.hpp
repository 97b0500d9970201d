// Wackamole's own wire messages, carried as payloads of GCS multicasts.
//
// STATE_MSG and BALANCE_MSG are the two messages of Algorithms 1-3. Both
// carry the identifier of the group view they were initiated in so that
// receivers can discard messages from superseded views (Algorithm 2 line 1:
// "receive STATE_MSG with current view id"). ARP_SHARE is the router
// application's periodic ARP-knowledge gossip (Section 5.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gcs/types.hpp"
#include "util/bytes.hpp"
#include "wackamole/group_ids.hpp"

namespace wam::wackamole {

/// Identity of one group view: (daemon view id, per-group sequence number).
struct ViewTag {
  std::uint64_t epoch = 0;
  std::uint32_t coordinator = 0;
  std::uint64_t group_seq = 0;

  static ViewTag of(const gcs::GroupView& v) {
    return ViewTag{v.daemon_view.epoch, v.daemon_view.coordinator.value(),
                   v.group_seq};
  }
  friend auto operator<=>(const ViewTag&, const ViewTag&) = default;
  [[nodiscard]] std::string to_string() const {
    return std::to_string(epoch) + "." + std::to_string(group_seq);
  }
};

/// Wire codes. 1, 2 and 4 are reserved: they carried the retired v1
/// STATE/BALANCE/ALLOC bodies, are never reused, and peek_type() rejects
/// them, so the valid codes are not contiguous.
enum class WamMsgType : std::uint8_t {
  kArpShare = 3,
  /// NOTIFY: "I hold the allocation for <group> but cannot enforce it" —
  /// sent when a daemon exhausts its OS-op retry budget and self-fences, or
  /// (fenced = false) when its quarantine cooldown clears. Peers treat a
  /// fence as a targeted trigger to re-run Reallocate_IPs() excluding the
  /// fenced member for that group.
  kNotify = 5,
  /// STATE_MSG, BALANCE_MSG and ALLOC: a per-message name table sent once
  /// plus varint counts and table indices. ALLOC is the representative-
  /// driven mode's (§4.2) full allocation, computed by the representative
  /// at the end of GATHER and imposed on the other daemons; same body as
  /// BALANCE_MSG.
  kStateV2 = 6,
  kBalanceV2 = 7,
  kAllocV2 = 8,
  /// Sentinel: one past the last valid wire code. Keep it the final
  /// enumerator — peek_type() derives its validity range from it, so a new
  /// message type added above extends the range automatically.
  kAfterLast_,
};

/// Last code accepted on the wire, derived from the enum.
inline constexpr std::uint8_t kWamMsgTypeLast =
    static_cast<std::uint8_t>(WamMsgType::kAfterLast_) - 1;

/// ARP_SHARE: IPs present in the sender host's ARP cache — the peers that
/// must be notified when a virtual address moves (router application).
struct ArpShareMsg {
  std::vector<std::uint32_t> ips;
};

/// NOTIFY: self-fence (fenced = true) or quarantine-clear (fenced = false)
/// for one VIP group. `cooldown_ms` advertises how long the sender will sit
/// quarantined before probing again; `reason` is the OS-op failure detail.
struct NotifyMsg {
  ViewTag view;
  std::string group;
  bool fenced = true;
  std::uint32_t cooldown_ms = 0;
  std::string reason;
};

/// STATE_MSG: the sender's local knowledge, sent on every view change, in
/// interned form. The wire encoding (kStateV2) carries a name table once
/// (each distinct name of the three lists, in first-appearance order — a
/// pure function of the message content, so the bytes are cross-process
/// deterministic) plus varint table indices; GroupIds themselves never
/// leave the process.
struct StateMsgV2 {
  ViewTag view;
  bool mature = false;
  std::uint32_t weight = 1;             // capacity weight for balancing
  std::vector<GroupId> owned;           // VIP groups currently covered
  std::vector<GroupId> preferred;       // startup preferences (§3.4)
  /// Groups the sender has self-fenced (NOTIFY protocol): carried in
  /// STATE_MSG so quarantine survives view changes.
  std::vector<GroupId> quarantined;
};

/// BALANCE_MSG / ALLOC: the representative's full re-allocation decision,
/// in interned form. The wire encoding (kBalanceV2 / kAllocV2) dedupes
/// owners into a table — with V groups and M members an entry costs
/// name+~1 byte instead of name+8.
struct BalanceMsgV2 {
  ViewTag view;
  /// group id -> (owner daemon ip, owner client id), in the sender's
  /// order (the daemon sends name-sorted).
  std::vector<std::pair<GroupId, std::pair<std::uint32_t, std::uint32_t>>>
      allocation;
};

[[nodiscard]] util::Bytes encode_arp_share(const ArpShareMsg& m);
[[nodiscard]] util::Bytes encode_notify(const NotifyMsg& m);

[[nodiscard]] util::Bytes encode_state_v2(const StateMsgV2& m);
[[nodiscard]] util::Bytes encode_balance_v2(const BalanceMsgV2& m);
[[nodiscard]] util::Bytes encode_alloc_v2(const BalanceMsgV2& m);

/// Peek the type byte; throws util::DecodeError on empty input and on
/// unknown or reserved codes.
[[nodiscard]] WamMsgType peek_type(util::ByteView buf);
[[nodiscard]] ArpShareMsg decode_arp_share(util::ByteView buf);
[[nodiscard]] NotifyMsg decode_notify(util::ByteView buf);
[[nodiscard]] StateMsgV2 decode_state_v2(util::ByteView buf);
[[nodiscard]] BalanceMsgV2 decode_balance_v2(util::ByteView buf);
[[nodiscard]] BalanceMsgV2 decode_alloc_v2(util::ByteView buf);

}  // namespace wam::wackamole
