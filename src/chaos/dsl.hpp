// The scenario DSL: the text form of chaos::FaultSchedule. One directive
// per line, '#' starts a comment:
//
//     chaos cluster state-faults   # artifact: profile (cluster | router)
//                                  # and flags (os-faults, state-faults)
//     seed 1234                    # fabric seed (default 1)
//     servers 4                    # routers under `chaos router`
//     vips 8
//     gcs tuned                    # hand-written only: tuned | default
//     balance 30                   # hand-written only: balance timeout
//     probe interval 0.01          # hand-written only: ProbeConfig knobs
//     probe port 9000              #   (defaults: 10 ms, port 9000)
//
//     at 2   probe 0               # start the measuring client on VIP 0
//     at 5   disconnect server2    # NIC down (router profile: fail host)
//     at 15  reconnect server2
//     at 20  partition server1,server2 | server3,server4
//     at 30  merge
//     at 32  crash server1          # GCS daemon crash ...
//     at 36  restart server1        # ... and restart
//     at 40  leave server3          # graceful leave
//     at 44  join server3           # rejoin after a graceful leave
//     at 46  drop server1 server2   # one-way frame drop 1 -> 2
//     at 48  undrop                 # heal all one-way drops
//     at 50  loss 0.2               # random loss burst (loss 0 heals)
//     at 52  balance | coverage | status server1
//     at 56  osfail server2 0.5     # acquire/release fails with p = 0.5
//     at 57  osfail-sticky server3  # every acquire fails until osheal
//     at 58  arp-lose server1       # gratuitous ARPs silently lost
//     at 59  osheal server2         # clear all enforcement faults
//     at 60  corrupt-vip-owner server1 3   # also corrupt-index (both take a
//                                          # group index), stale-incarnation,
//                                          # flip-view-id, reconfig-storm
//     check 72                     # assert Properties 1 and 2 here
//     check 77 guard               # ... as a regression guard
//     run 80                       # default: 10 s past the last line
//
// Times are decimal seconds, read exactly to the nanosecond. A script with
// the `chaos` line is a campaign artifact: chaos::run_dsl replays it
// through execute_schedule, in the campaign's world with its oracle. A
// script without it is a hand-written scenario, run in the scenario world
// (client behind a router, tuned GCS, 60 s balance timeout, seed 1)
// through the same dispatcher and oracle.
#pragma once

#include <string>

#include "apps/cluster_scenario.hpp"
#include "chaos/schedule.hpp"

namespace wam::chaos {

struct DslScript {
  FaultSchedule schedule;
  /// The `chaos` line was present: a campaign artifact.
  bool chaos = false;
  /// World settings: gcs/balance/probe of a hand-written scenario and, for
  /// either kind, the fabric `seed`. Server and VIP counts mirror
  /// `schedule`.
  apps::ClusterOptions world;
};

/// The DSL verb for a kind ("crash", "drop", ...).
[[nodiscard]] const char* fault_kind_verb(FaultKind k);

/// Render a schedule; parse_dsl(to_dsl(s)).schedule == s.
[[nodiscard]] std::string to_dsl(const FaultSchedule& s);

/// Throws std::invalid_argument naming the offending line.
[[nodiscard]] DslScript parse_dsl(const std::string& text);

}  // namespace wam::chaos
