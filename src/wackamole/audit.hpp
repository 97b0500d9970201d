// Self-stabilization, detection side: cheap invariant checks over a
// wackamole daemon's hot state. A transient corruption — a stray write
// into the VIP table, a desynced member index, a stale view incarnation —
// would otherwise violate Properties 1/2 silently and forever; the
// auditor turns it into a finding the daemon can heal from (rebuild,
// fence, or a full resync from peers' STATE_MSGs — see daemon.cpp).
//
// Audits always run: every gcs::kAuditPeriod and at every protocol-message
// boundary, view change, disconnect and shutdown. What runs there is the
// bounded check(), whose cost does not depend on V, the number of VIP
// groups:
//   - in O(members): the view tag; the index size against the table size;
//     the quarantine set; and that every table member the index names is
//     in the view (one in-view flag per table member, cached per view);
//   - in O(64): one block of the table, in round-robin order — its XOR
//     checksum, each of its entries against the index, and each owner
//     against the view — plus the entries outside the configured set.
// Blocks follow the daemon's name-sorted GroupSet, so detection times do
// not depend on process-local GroupIds. A corruption is seen within
// ceil(V/64) audit points, and at every point when V <= 64. Only when the
// check sees something wrong does the full O(V) audit() run; its findings
// are what the daemon heals from.
#pragma once

#include <string>
#include <vector>

#include "gcs/types.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

namespace wam::wackamole {

class Daemon;

enum class AuditCheck {
  /// VipTable's incremental XOR checksum disagrees with its entries.
  kTableChecksum,
  /// VipTable's member->groups index disagrees with the owner map.
  kTableIndex,
  /// Cached ViewTag disagrees with the installed group view (a stale or
  /// bit-flipped incarnation: every in-view message would look stale).
  kViewTag,
  /// A table entry names an owner that is not a member of the view.
  kOwnerNotInView,
  /// The quarantine set names a group that is not configured.
  kQuarantineUnknown,
};

const char* audit_check_name(AuditCheck c);

struct AuditFinding {
  AuditCheck check;
  std::string group;  // offending group name, when one is identifiable
  std::string detail;
};

class StateAuditor {
 public:
  /// Sweep every invariant in O(V); returns all findings (empty = clean).
  /// Pure read — healing is the daemon's decision, not the auditor's.
  [[nodiscard]] static std::vector<AuditFinding> audit(const Daemon& daemon);
  /// One audit point's bounded check (see above); false = something looks
  /// wrong, run audit() for the findings. Moves on to the next block and
  /// allocates nothing once its flags cover the view's members.
  [[nodiscard]] bool check(const Daemon& daemon);

 private:
  /// In-view flag of one table member (VipTable::member_at).
  struct Owner {
    gcs::DaemonId daemon;
    std::uint32_t client = 0;
    bool in_view = false;
  };
  ViewTag view_;                // the view the flags were computed for
  std::vector<Owner> owners_;   // indexed by table member
  std::size_t next_block_ = 0;  // round-robin cursor
};

}  // namespace wam::wackamole
