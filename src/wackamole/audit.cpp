#include "wackamole/audit.hpp"

#include <algorithm>

#include "wackamole/daemon.hpp"

namespace wam::wackamole {

const char* audit_check_name(AuditCheck c) {
  switch (c) {
    case AuditCheck::kTableChecksum: return "table-checksum";
    case AuditCheck::kTableIndex: return "table-index";
    case AuditCheck::kViewTag: return "view-tag";
    case AuditCheck::kOwnerNotInView: return "owner-not-in-view";
    case AuditCheck::kQuarantineUnknown: return "quarantine-unknown";
  }
  return "?";
}

std::vector<AuditFinding> StateAuditor::audit(const Daemon& daemon) {
  std::vector<AuditFinding> out;
  const auto& table = daemon.table();

  if (!table.verify_checksum()) {
    out.push_back({AuditCheck::kTableChecksum, "",
                   "owner-map checksum mismatch over " +
                       std::to_string(table.size()) + " entries"});
  }
  if (!table.verify_index()) {
    out.push_back({AuditCheck::kTableIndex, "",
                   "member index disagrees with the owner map"});
  }

  const auto& view = daemon.view();
  if (view) {
    if (daemon.view_tag() != ViewTag::of(*view)) {
      out.push_back({AuditCheck::kViewTag, "",
                     "cached tag " + daemon.view_tag().to_string() +
                         " vs installed view " +
                         ViewTag::of(*view).to_string()});
    }
    // Deterministic sweep order: findings come out sorted by group name,
    // never by process-local GroupId order.
    std::vector<std::pair<const std::string*, gcs::MemberId>> offenders;
    table.for_each_owner([&](GroupId id, const gcs::MemberId& member) {
      if (view->rank_of(member) < 0) {
        offenders.emplace_back(&group_name(id), member);
      }
    });
    std::sort(offenders.begin(), offenders.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    for (const auto& [name, member] : offenders) {
      out.push_back({AuditCheck::kOwnerNotInView, *name,
                     "owner " + member.to_string() + " not in view"});
    }
  }

  for (const auto& name : daemon.quarantined_groups()) {
    if (!daemon.configured(name)) {
      out.push_back({AuditCheck::kQuarantineUnknown, name,
                     "quarantined group is not configured"});
    }
  }
  return out;
}

bool StateAuditor::check(const Daemon& daemon) {
  const auto& table = daemon.table();
  const auto& view = daemon.view();
  if (view && daemon.view_tag() != ViewTag::of(*view)) return false;
  if (!table.index_count_agrees()) return false;
  for (const auto& name : daemon.quarantined_groups()) {
    if (!daemon.configured(name)) return false;
  }
  if (view) {
    // Refresh the in-view flags: all of them for a new view, and each
    // table member whose identity differs from the one it was computed
    // for (the table only appends members until its next clear()).
    if (view_ != ViewTag::of(*view)) {
      view_ = ViewTag::of(*view);
      owners_.clear();
    }
    for (std::size_t i = 0; i < table.member_count(); ++i) {
      const auto m = table.member_at(i);
      if (i == owners_.size() || owners_[i].daemon != m.daemon ||
          owners_[i].client != m.client) {
        const Owner o{m.daemon, m.client, view->rank_of(m) >= 0};
        if (i == owners_.size()) {
          owners_.push_back(o);
        } else {
          owners_[i] = o;
        }
      }
      if (!owners_[i].in_view && table.indexed_by(i) > 0) return false;
    }
  }
  auto owner_ok = [&](std::size_t i) { return !view || owners_[i].in_view; };
  if (!table.verify_block(table.blocks(), owner_ok)) return false;
  if (table.blocks() == 0) return true;
  const auto b = next_block_ % table.blocks();
  next_block_ = b + 1;
  return table.verify_block(b, owner_ok);
}

}  // namespace wam::wackamole
