#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace wam::sim {
namespace {

TEST(Stats, EmptyGuards) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.summary(), "n=0");
  EXPECT_THROW((void)s.mean(), util::ContractViolation);
  EXPECT_THROW((void)s.percentile(50), util::ContractViolation);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {2.0, 4.0, 6.0, 8.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.stddev(), 2.5819888974716, 1e-9);
}

TEST(Stats, SingleSampleStddevZero) {
  Stats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(Stats, AcceptsDurations) {
  Stats s;
  s.add(milliseconds(1500));
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);  // stored in seconds
}

TEST(Stats, SummaryMentionsCount) {
  Stats s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_NE(s.summary().find("n=2"), std::string::npos);
}

TEST(Stats, QuantileIsPercentileOverHundred) {
  Stats s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.5), s.percentile(50));
  EXPECT_DOUBLE_EQ(s.quantile(0.99), s.percentile(99));
  EXPECT_DOUBLE_EQ(s.quantile(0.999), s.percentile(99.9));
  // Tail quantiles land where they should on a 1..1000 ramp.
  EXPECT_NEAR(s.quantile(0.99), 990.0, 1.0);
  EXPECT_NEAR(s.quantile(0.999), 999.0, 1.0);
}

TEST(Stats, MergeMatchesAddingEverySample) {
  Stats merged;
  Stats reference;
  Stats shard_a;
  Stats shard_b;
  for (int i = 0; i < 100; ++i) {
    double x = static_cast<double>((i * 37) % 100);
    (i % 2 == 0 ? shard_a : shard_b).add(x);
    reference.add(x);
  }
  merged.merge(shard_a);
  merged.merge(shard_b);
  ASSERT_EQ(merged.count(), reference.count());
  EXPECT_DOUBLE_EQ(merged.mean(), reference.mean());
  EXPECT_DOUBLE_EQ(merged.min(), reference.min());
  EXPECT_DOUBLE_EQ(merged.max(), reference.max());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(merged.percentile(p), reference.percentile(p)) << p;
  }
}

TEST(Stats, MergeReusesSortedViews) {
  // Both sides already queried (sorted views cached): merging must keep
  // percentile() answers identical to a from-scratch sort.
  Stats a;
  Stats b;
  for (int i = 100; i > 0; --i) a.add(static_cast<double>(i));
  for (int i = 200; i > 100; --i) b.add(static_cast<double>(i));
  (void)a.percentile(50);  // warm both caches
  (void)b.percentile(50);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(a.percentile(100), 200.0);
  EXPECT_NEAR(a.percentile(50), 100.5, 1.0);
}

TEST(Stats, MergeIntoEmptyAndFromEmpty) {
  Stats empty;
  Stats full;
  full.add(1.0);
  full.add(2.0);
  full.merge(empty);  // no-op
  EXPECT_EQ(full.count(), 2u);
  Stats target;
  target.merge(full);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

}  // namespace
}  // namespace wam::sim
