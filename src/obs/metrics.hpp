// MetricRegistry: one hierarchical namespace for every counter and gauge
// in a simulation.
//
// Metric names are '/'-separated paths scoped by subsystem and instance —
// "wam/s3/acquires", "gcs/s1/views_installed", "net/frames_sent" — so a
// bench can sum one statistic across all daemons with a single wildcard
// query (sum("gcs/*/views_installed")) instead of a hand-rolled loop, and
// the `metrics` control command can export any subtree as JSON.
//
// The legacy per-component counter structs (WamCounters, gcs
// DaemonCounters, FabricCounters, HostCounters) are retained as *views*
// over registry cells: each field is an obs::Counter that, once bound by
// bind_counters(), reads and writes the registry cell directly. Each struct
// lists its (name, field) pairs once, in a static for_each. Unbound
// counters work standalone, so components remain usable without any
// observability context (tests construct daemons bare all the time). Copying a Counter
// snapshots its current value — `auto before = d.counters().views_installed`
// keeps meaning what it always meant.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace wam::obs {

class MetricRegistry;

/// Monotonic 64-bit counter, optionally backed by a registry cell.
class Counter {
 public:
  Counter() = default;
  /// Copies snapshot the value and drop the binding.
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    set(other.value());
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const {
    return cell_ != nullptr ? *cell_ : value_;
  }
  operator std::uint64_t() const { return value(); }  // NOLINT: intentional

  Counter& operator++() {
    add(1);
    return *this;
  }
  void operator++(int) { add(1); }
  Counter& operator+=(std::uint64_t n) {
    add(n);
    return *this;
  }
  void add(std::uint64_t n) {
    if (cell_ != nullptr) {
      *cell_ += n;
    } else {
      value_ += n;
    }
  }

 private:
  friend class MetricRegistry;
  void set(std::uint64_t v) {
    if (cell_ != nullptr) {
      *cell_ = v;
    } else {
      value_ = v;
    }
  }

  std::uint64_t value_ = 0;
  std::uint64_t* cell_ = nullptr;  // owned by a MetricRegistry when bound
};

inline std::ostream& operator<<(std::ostream& os, const Counter& c) {
  return os << c.value();
}

/// Point-in-time value (doubles; set/add), optionally registry-backed.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other) : value_(other.value()) {}
  Gauge& operator=(const Gauge& other) {
    set(other.value());
    return *this;
  }

  [[nodiscard]] double value() const {
    return cell_ != nullptr ? *cell_ : value_;
  }
  operator double() const { return value(); }  // NOLINT: intentional

  void set(double v) {
    if (cell_ != nullptr) {
      *cell_ = v;
    } else {
      value_ = v;
    }
  }
  void add(double d) { set(value() + d); }

 private:
  friend class MetricRegistry;
  double value_ = 0;
  double* cell_ = nullptr;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create the cell behind a counter/gauge name. References stay
  /// valid for the registry's lifetime (node-based storage).
  std::uint64_t& counter(const std::string& name);
  double& gauge(const std::string& name);

  /// Attach a free-standing Counter/Gauge to a named cell; the current
  /// free-standing value folds into the cell so nothing is lost when a
  /// component binds after it already counted something.
  void bind(Counter& c, const std::string& name);
  void bind(Gauge& g, const std::string& name);

  /// Current value, 0 when the metric does not exist.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;

  /// Sum every counter matching `pattern`:
  ///   * exact name           — "net/frames_sent"
  ///   * subtree prefix       — "wam/s3" (all metrics under that scope)
  ///   * '*' segment wildcard — "gcs/*/views_installed"
  [[nodiscard]] std::uint64_t sum(const std::string& pattern) const;
  /// Deterministic snapshot: {"counters":{...},"gauges":{...}}, keys
  /// sorted (std::map order). A non-empty
  /// `prefix` restricts the export to that subtree.
  [[nodiscard]] std::string to_json(const std::string& prefix = "") const;

  static bool name_matches(const std::string& pattern,
                           const std::string& name);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
};

/// Back every field of a counter struct with the registry cell
/// "<scope>/<field name>", as listed by the struct's static for_each.
template <class Counters>
void bind_counters(MetricRegistry& registry, Counters& counters,
                   std::string_view scope) {
  Counters::for_each(counters, [&](const char* name, Counter& c) {
    registry.bind(c, std::string(scope) + "/" + name);
  });
}

}  // namespace wam::obs
