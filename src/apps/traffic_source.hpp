// The unified client-traffic abstraction.
//
// Two traffic drivers exist side by side: the paper's single ProbeClient
// (§6) and the open-loop flow harness in src/load. Scenarios and benches
// should not care which one is wired in — a TrafficSource starts, stops,
// and renders what it observed as a structured TrafficReport, so
// availability accounting is comparable across drivers and across
// fail-over protocols.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace wam::apps {

/// Aggregate, driver-agnostic view of the service a traffic source
/// received. `availability` is request-weighted: answered / offered, so a
/// fail-over during heavy load costs proportionally more than the same
/// outage under a trickle.
struct TrafficReport {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses = 0;
  /// Requests known to have gone unanswered (by the driver's own timeout
  /// model; in-flight requests at stop() time count here too).
  std::uint64_t lost = 0;
  /// Re-sends of timed-out requests (drivers without retry logic: 0).
  std::uint64_t retries = 0;
  /// Longest silence between consecutive responses.
  sim::Duration longest_gap = sim::kZero;

  [[nodiscard]] double availability() const {
    return requests_sent == 0
               ? 1.0
               : static_cast<double>(responses) /
                     static_cast<double>(requests_sent);
  }

  /// Fold another source's report into this one (per-shard / multi-source
  /// scenarios). longest_gap keeps the max — gaps measured by different
  /// sources are not concatenable.
  TrafficReport& merge(const TrafficReport& other) {
    requests_sent += other.requests_sent;
    responses += other.responses;
    lost += other.lost;
    retries += other.retries;
    longest_gap = longest_gap > other.longest_gap ? longest_gap
                                                  : other.longest_gap;
    return *this;
  }

  /// "sent=1200 answered=1187 lost=13 retries=4 avail=0.9892 gap=2.31s"
  [[nodiscard]] std::string summary() const;
};

/// A source of client traffic attached to a host at construction time.
/// start()/stop() are idempotent; report() may be called mid-run.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  virtual void start() = 0;
  virtual void stop() = 0;
  [[nodiscard]] virtual TrafficReport report() const = 0;
};

}  // namespace wam::apps
