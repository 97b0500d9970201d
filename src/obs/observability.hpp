// The one-stop observability context: a MetricRegistry plus the event
// timeline.
//
// A simulation owns exactly one Observability; components receive a
// pointer to it (plus their metric scope) through bind_observability().
// Components keep working without one — their counter structs then count
// free-standing and no events are recorded — so unit tests can
// build daemons bare while scenarios and benches get the full picture.
#pragma once

#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>

#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace wam::obs {

struct Observability {
  MetricRegistry registry;
  /// The simulation's one event recorder. The name stays `bus` because
  /// bench/e2e reads `obs.bus.published()`.
  EventTimeline bus;

  /// Record a structured event stamped with the given virtual time.
  /// `source` must outlive this context: a literal or an intern() result.
  void emit(sim::TimePoint time, EventType type, std::string_view source,
            std::initializer_list<Field> fields = {}) {
    bus.emit(time, type, source, fields);
  }

  /// A copy of `name` that lives as long as this context, for event
  /// sources and names: components intern their scope once at bind time,
  /// because they die before the events that name them.
  std::string_view intern(std::string_view name) {
    return *names_.emplace(name).first;
  }

 private:
  std::set<std::string, std::less<>> names_;  // node-based: views stay valid
};

}  // namespace wam::obs
