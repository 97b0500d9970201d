// Self-stabilization, GCS side: a shadow copy of the installed daemon view
// plus an epoch high-water mark, checked against the live view every
// kAuditPeriod and at the heartbeat boundary.
//
// The membership view is the root of everything Wackamole derives (ranks,
// representatives, staleness tags); a transient flip of the view id or the
// member list silently desynchronizes the whole cluster. The auditor keeps
// a duplicated copy recorded at install time — a TMR-lite guard — and the
// daemon heals a divergence by restoring the shadow and re-entering
// discovery with a fresh incarnation (epoch folded over the high-water
// mark, so the healed daemon can never regress below a view it already
// installed).
#pragma once

#include <optional>
#include <string>

#include "gcs/types.hpp"
#include "sim/time.hpp"

namespace wam::gcs {

/// Period of both daemons' audit timers: this ViewAuditor's and the
/// wackamole StateAuditor's. Audits always run; there is no switch.
inline constexpr sim::Duration kAuditPeriod = sim::milliseconds(250);

/// Quiet interval of the DISCOVERY flood: a daemon that learns something
/// rebroadcasts once, this long after the first message that taught it,
/// with everything learned meanwhile. It is over three times a default
/// segment's latency plus jitter (60 us), so one rebroadcast per daemon
/// carries a round's whole first wave.
inline constexpr sim::Duration kDiscoveryQuiet = sim::microseconds(200);

enum class ViewCheck {
  /// Live view id disagrees with the shadow recorded at install.
  kIdMismatch,
  /// Live member list disagrees with the shadow recorded at install.
  kMembersMismatch,
  /// Live epoch regressed below the installed high-water mark.
  kEpochRegressed,
  /// This daemon is missing from its own installed view.
  kSelfMissing,
};

const char* view_check_name(ViewCheck c);

struct ViewFinding {
  ViewCheck check;
  std::string detail;
};

class ViewAuditor {
 public:
  /// Snapshot the freshly installed view (call from install paths only).
  void record(const View& v);
  /// Compare the live view against the shadow; nullopt = clean. Pure read.
  [[nodiscard]] std::optional<ViewFinding> audit(const View& live,
                                                 DaemonId self) const;
  /// The trusted copy to restore from on divergence.
  [[nodiscard]] const View& shadow() const { return shadow_; }
  /// Highest epoch ever installed — fold into the next discovery epoch so
  /// a healed daemon rejoins with a strictly fresh incarnation.
  [[nodiscard]] std::uint64_t shadow_epoch() const { return shadow_epoch_; }

 private:
  View shadow_;
  bool have_ = false;
  std::uint64_t shadow_epoch_ = 0;
};

}  // namespace wam::gcs
