// Chaos-campaign decision identity: a cluster-profile seed executed on the
// sharded engine must reproduce the sequential engine's verdicts AND its
// byte-exact observability timeline. Chaos worlds carry no client traffic
// (all protocol activity lives on shard 0), so even the cross-sender
// same-nanosecond caveat of docs/PARALLEL.md cannot bite: the comparison
// is full-bytes, no canonicalization.
#include "chaos/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace wam::chaos {
namespace {

CampaignOptions small_campaign() {
  CampaignOptions opt;
  opt.generator.rounds = 4;  // keep the horizon short; CI runs more seeds
  opt.shrink = false;
  opt.shard_threads = false;
  return opt;
}

TEST(ChaosShard, SeededRunMatchesSequentialEngineByteForByte) {
  for (std::uint64_t seed : {4ULL, 63ULL}) {
    auto opt = small_campaign();
    opt.shards = 1;  // the plain engine: the oracle
    const auto oracle = run_seed(seed, Profile::kCluster, opt);
    ASSERT_FALSE(oracle.timeline_json.empty()) << seed;
    for (int shards : {2, 4}) {
      opt.shards = shards;
      const auto sharded = run_seed(seed, Profile::kCluster, opt);
      EXPECT_EQ(oracle.violations.size(), sharded.violations.size())
          << seed << " shards " << shards;
      EXPECT_EQ(oracle.dsl, sharded.dsl) << seed << " shards " << shards;
      EXPECT_EQ(oracle.timeline_json, sharded.timeline_json)
          << seed << " shards " << shards;
    }
  }
}

TEST(ChaosShard, ThreadedShardedRunMatchesSerial) {
  auto opt = small_campaign();
  opt.shards = 2;
  opt.shard_threads = false;
  const auto serial = run_seed(11, Profile::kCluster, opt);
  opt.shard_threads = true;
  const auto threaded = run_seed(11, Profile::kCluster, opt);
  EXPECT_EQ(serial.timeline_json, threaded.timeline_json);
  EXPECT_EQ(serial.violations.size(), threaded.violations.size());
}

TEST(ChaosShard, RouterProfileIgnoresShardsOption) {
  auto opt = small_campaign();
  const auto plain = run_seed(7, Profile::kRouter, opt);
  opt.shards = 3;
  const auto with_flag = run_seed(7, Profile::kRouter, opt);
  EXPECT_EQ(plain.timeline_json, with_flag.timeline_json);
}

}  // namespace
}  // namespace wam::chaos
