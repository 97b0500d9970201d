#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace wam::obs {

std::uint64_t& MetricRegistry::counter(const std::string& name) {
  return counters_[name];
}

double& MetricRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

void MetricRegistry::bind(Counter& c, const std::string& name) {
  auto& cell = counter(name);
  cell += c.value_;
  c.value_ = 0;
  c.cell_ = &cell;
}

void MetricRegistry::bind(Gauge& g, const std::string& name) {
  auto& cell = gauge(name);
  cell = g.value();
  g.value_ = 0;
  g.cell_ = &cell;
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double MetricRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0;
}

bool MetricRegistry::name_matches(const std::string& pattern,
                                  const std::string& name) {
  if (pattern.empty()) return true;
  if (pattern.find('*') == std::string::npos) {
    if (name == pattern) return true;
    // Subtree prefix: "wam/s3" matches "wam/s3/acquires".
    return name.size() > pattern.size() &&
           name.compare(0, pattern.size(), pattern) == 0 &&
           name[pattern.size()] == '/';
  }
  // Segment-wise match with '*' standing for exactly one segment.
  std::size_t p = 0, n = 0;
  while (true) {
    auto p_end = pattern.find('/', p);
    auto n_end = name.find('/', n);
    auto p_seg = pattern.substr(p, p_end == std::string::npos
                                       ? std::string::npos
                                       : p_end - p);
    auto n_seg = name.substr(n, n_end == std::string::npos ? std::string::npos
                                                           : n_end - n);
    if (p_seg != "*" && p_seg != n_seg) return false;
    bool p_done = p_end == std::string::npos;
    bool n_done = n_end == std::string::npos;
    if (p_done || n_done) return p_done && n_done;
    p = p_end + 1;
    n = n_end + 1;
  }
}

std::uint64_t MetricRegistry::sum(const std::string& pattern) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters_) {
    if (name_matches(pattern, name)) total += value;
  }
  return total;
}

std::string MetricRegistry::to_json(const std::string& prefix) const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters_) {
    if (!name_matches(prefix, name)) continue;
    w.key(name).value(value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges_) {
    if (!name_matches(prefix, name)) continue;
    w.key(name).value(value);
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace wam::obs
