// Timeline bytes, pinned: five chaos seeds whose exported timelines
// together carry every event type and every field value kind. Each
// timeline's length and 64-bit FNV-1a digest are pinned, so any change to
// what is recorded or how it renders shows here as a changed digest.
//
// A rare event type must not hang on a µs-scale race in one pinned seed,
// which any timing change can remove. ArpConflict comes from a
// hand-written scenario whose conflict does not depend on jitter; its
// seed-1 timeline is pinned the same way, so every type the render check
// accepts is pinned byte for byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "chaos/dsl.hpp"
#include "timeline_pins.hpp"

namespace wam::chaos {
namespace {

// A balance after a rejoin hands groups to the representative while their
// old owners still hold them. server1 comes back holding every group and
// loses each conflict to a peer at the merge; the balance then moves a
// share back to it. As the sender it applies its own BALANCE at once, a
// full frame latency before the old owners release, so its duplicate-address
// probe finds each address still in use, whatever the fabric's jitter.
constexpr const char* kRejoinBalance = R"(servers 3
vips 6
at 2 probe 0
at 5 disconnect server1
at 15 reconnect server1
at 25 balance
check 30
run 35
)";
constexpr std::size_t kRejoinBalanceBytes = 9077;
constexpr std::uint64_t kRejoinBalanceDigest = 8384475733649925955ULL;

std::string rejoin_balance_timeline(std::uint64_t seed) {
  auto script = parse_dsl("seed " + std::to_string(seed) + "\n" +
                          kRejoinBalance);
  std::ostringstream narration;
  std::string json;
  EXPECT_TRUE(run_dsl(script, narration, &json).empty()) << "seed " << seed;
  return json;
}

bool renders(const std::string& json, const char* type) {
  return json.find(std::string("\"type\":\"") + type + '"') !=
         std::string::npos;
}

TEST(ObsTimelinePin, SeedTimelinesKeepTheirBytes) {
  std::string all;
  for (const Pin& pin : kPins) {
    const std::string json = timeline_of(pin);
    EXPECT_EQ(json.size(), pin.bytes) << pin.name;
    EXPECT_EQ(fnv1a(json), pin.digest) << pin.name;
    all += json;
  }
  const std::string rejoin = rejoin_balance_timeline(1);
  EXPECT_EQ(rejoin.size(), kRejoinBalanceBytes) << "rejoin-balance seed 1";
  EXPECT_EQ(fnv1a(rejoin), kRejoinBalanceDigest) << "rejoin-balance seed 1";
  all += rejoin;
  // The pinned seeds and the rejoin-balance scenario between them render
  // every event type.
  for (const char* type :
       {"ViewInstalled", "StateTransition", "VipAcquired", "VipReleased",
        "BalanceRound", "Reallocation", "Disconnect", "ArpAnnounce",
        "FaultInjected", "FaultHealed", "ArpConflict", "GroupFenced",
        "GroupUnfenced", "PanicRelease", "CorruptionDetected", "SelfHeal"}) {
    EXPECT_TRUE(renders(all, type)) << type;
  }
}

TEST(ObsTimelinePin, RejoinBalanceRendersArpConflictAtEveryFabricSeed) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_TRUE(renders(rejoin_balance_timeline(seed), "ArpConflict"))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace wam::chaos
