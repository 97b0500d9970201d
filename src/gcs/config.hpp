// GCS timeout configuration — the knobs of Table 1.
//
// The paper tunes three Spread timeouts (seconds):
//                         Default   Tuned
//   Fault-detection            5       1
//   Distributed heartbeat      2       0.4
//   Discovery                  7       1.4
//
// Failure-detection latency is [fault_detection - heartbeat,
// fault_detection] after the fault (the detector arms from the last
// heartbeat received), and a reconfiguration then costs one discovery
// timeout plus the membership-install exchange; hence the paper's 10-12 s
// (default) vs 2-2.4 s (tuned) notification latency.
#pragma once

#include <cstdint>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace wam::gcs {

/// How Agreed (total-order) delivery is implemented.
enum class OrderingEngine : std::uint8_t {
  /// Coordinator-sequenced: members forward to the lowest-id daemon, which
  /// stamps sequence numbers and broadcasts. Lowest latency; the default.
  kSequencer = 0,
  /// Totem-style rotating token (what the real Spread uses): the token
  /// carries the next sequence number, an all-received-up-to watermark and
  /// a retransmission-request list; the holder broadcasts its pending
  /// messages and passes the token on. Latency ~ half a rotation; built-in
  /// flow control via the per-hold window.
  kTokenRing = 1,
};

struct Config {
  sim::Duration fault_detection_timeout = sim::seconds(5.0);
  sim::Duration heartbeat_timeout = sim::seconds(2.0);  // "distributed heartbeat"
  /// Also how long the coordinator waits for ACCEPTs / members wait for
  /// the INSTALL before restarting discovery.
  sim::Duration discovery_timeout = sim::seconds(7.0);
  /// Delay before NACKing a sequence gap (lets reordered frames land).
  sim::Duration nack_delay = sim::milliseconds(5);
  std::uint16_t port = 4803;
  /// When set to a 224.0.0.0/4 address, all daemon one-to-many traffic
  /// uses IP multicast on this group instead of limited broadcast (the
  /// real Spread's default mode) — non-member hosts never see daemon
  /// frames. Zero (default) = broadcast.
  net::Ipv4Address multicast_group;

  OrderingEngine ordering = OrderingEngine::kSequencer;
  /// Token ring: minimum hold time per hop (paces rotation).
  sim::Duration token_hold = sim::milliseconds(2);
  /// Token ring: retransmit the token if the ring shows no progress.
  sim::Duration token_retry = sim::milliseconds(50);
  /// Token ring: max messages broadcast per token hold (flow control).
  int token_window = 64;

  /// Table 1, "Default Spread" column: 5 / 2 / 7 seconds.
  static Config spread_default();
  /// Table 1, "Tuned Spread" column: 1 / 0.4 / 1.4 seconds.
  static Config spread_tuned();

  void validate() const;  // throws ContractViolation on nonsense

  [[nodiscard]] Config with_token_ring() const {
    Config c = *this;
    c.ordering = OrderingEngine::kTokenRing;
    return c;
  }

  [[nodiscard]] Config with_multicast(
      net::Ipv4Address group = net::Ipv4Address(239, 192, 0, 7)) const {
    Config c = *this;
    c.multicast_group = group;
    return c;
  }
};

}  // namespace wam::gcs
