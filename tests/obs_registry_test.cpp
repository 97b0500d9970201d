// MetricRegistry: names, wildcard matching, bound-counter semantics and
// the deterministic JSON export.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace wam::obs {
namespace {

TEST(MetricRegistry, CounterCellsAreStableAndShared) {
  MetricRegistry reg;
  auto& a = reg.counter("wam/s1/acquires");
  a = 3;
  // Get-or-create returns the same cell.
  EXPECT_EQ(&reg.counter("wam/s1/acquires"), &a);
  EXPECT_EQ(reg.counter_value("wam/s1/acquires"), 3u);
  EXPECT_EQ(reg.counter_value("wam/s1/missing"), 0u);
}

TEST(MetricRegistry, NameMatchingRules) {
  // Exact.
  EXPECT_TRUE(MetricRegistry::name_matches("a/b/c", "a/b/c"));
  EXPECT_FALSE(MetricRegistry::name_matches("a/b/c", "a/b/d"));
  // Subtree prefix.
  EXPECT_TRUE(MetricRegistry::name_matches("a/b", "a/b/c"));
  EXPECT_TRUE(MetricRegistry::name_matches("a", "a/b/c"));
  EXPECT_FALSE(MetricRegistry::name_matches("a/bb", "a/b/c"));
  // '*' = exactly one path segment.
  EXPECT_TRUE(MetricRegistry::name_matches("a/*/c", "a/b/c"));
  EXPECT_FALSE(MetricRegistry::name_matches("a/*/c", "a/b/x/c"));
  EXPECT_FALSE(MetricRegistry::name_matches("a/*/c", "a/c"));
}

TEST(MetricRegistry, WildcardSumAcrossDaemons) {
  MetricRegistry reg;
  reg.counter("wam/s1/acquires") = 2;
  reg.counter("wam/s2/acquires") = 3;
  reg.counter("wam/s10/acquires") = 5;
  reg.counter("wam/s1/releases") = 100;
  reg.counter("gcs/s1/acquires") = 7;  // different subsystem

  EXPECT_EQ(reg.sum("wam/*/acquires"), 10u);
  EXPECT_EQ(reg.sum("wam/s1"), 102u);       // subtree
  EXPECT_EQ(reg.sum("wam/s2/acquires"), 3u);  // exact
  EXPECT_EQ(reg.sum("nothing/here"), 0u);
}

TEST(MetricRegistry, BoundCounterReadsAndWritesTheCell) {
  MetricRegistry reg;
  Counter c;
  ++c;
  c += 4;  // free-standing value 5
  reg.bind(c, "x/count");
  // Binding folds the free-standing value into the cell.
  EXPECT_EQ(reg.counter_value("x/count"), 5u);
  ++c;
  EXPECT_EQ(reg.counter_value("x/count"), 6u);
  EXPECT_EQ(c.value(), 6u);
  // Copying snapshots the value and drops the binding.
  Counter snapshot = c;
  ++c;
  EXPECT_EQ(snapshot.value(), 6u);
  EXPECT_EQ(c.value(), 7u);
  // Implicit conversion keeps the legacy arithmetic idiom working.
  std::uint64_t before = snapshot;
  EXPECT_EQ(before + 1, c.value());
}

TEST(MetricRegistry, GaugeBindAndValue) {
  MetricRegistry reg;
  Gauge g;
  g.set(1.5);
  reg.bind(g, "x/level");
  EXPECT_DOUBLE_EQ(reg.gauge_value("x/level"), 1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("x/level"), 2.0);
}

TEST(MetricRegistry, JsonExportRoundTripsAndFiltersByPrefix) {
  MetricRegistry reg;
  reg.counter("wam/s1/acquires") = 2;
  reg.counter("net/frames_sent") = 9;
  reg.gauge("ip/s1/held_groups") = 3.0;

  auto doc = parse_json(reg.to_json());
  EXPECT_EQ(doc.at("counters").at("wam/s1/acquires").as_u64(), 2u);
  EXPECT_EQ(doc.at("counters").at("net/frames_sent").as_u64(), 9u);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("ip/s1/held_groups").number, 3.0);
  EXPECT_EQ(doc.object.size(), 2u);  // counters and gauges, nothing else

  auto filtered = parse_json(reg.to_json("wam"));
  EXPECT_TRUE(filtered.at("counters").has("wam/s1/acquires"));
  EXPECT_FALSE(filtered.at("counters").has("net/frames_sent"));

  // Deterministic: same registry exports byte-identical documents.
  EXPECT_EQ(reg.to_json(), reg.to_json());
}

}  // namespace
}  // namespace wam::obs
