// Timeline bytes, pinned: four chaos seeds whose exported timelines
// together carry every event type and every field value kind. Each
// timeline's length and 64-bit FNV-1a digest are pinned, so any change to
// what is recorded or how it renders shows here as a changed digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "chaos/campaign.hpp"

namespace wam::chaos {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Pin {
  const char* name;
  std::uint64_t seed;
  Profile profile;
  bool os_faults;
  bool state_faults;
  std::size_t bytes;
  std::uint64_t digest;
};

std::string timeline_of(const Pin& pin) {
  CampaignOptions opt;
  opt.shrink = false;
  opt.generator.os_faults = pin.os_faults;
  opt.generator.state_faults = pin.state_faults;
  return run_seed(pin.seed, pin.profile, opt).timeline_json;
}

constexpr Pin kPins[] = {
    {"cluster seed 4", 4, Profile::kCluster, false, false, 17292,
     8428612175089373243ULL},
    {"state-faults seed 7", 7, Profile::kCluster, false, true, 56315,
     2376367347779270847ULL},
    {"os-faults seed 11", 11, Profile::kCluster, true, false, 57448,
     10326626874568197117ULL},
    {"router seed 4", 4, Profile::kRouter, false, false, 11097,
     1098607053731211631ULL},
};

TEST(ObsTimelinePin, SeedTimelinesKeepTheirBytes) {
  std::string all;
  for (const Pin& pin : kPins) {
    const std::string json = timeline_of(pin);
    EXPECT_EQ(json.size(), pin.bytes) << pin.name;
    EXPECT_EQ(fnv1a(json), pin.digest) << pin.name;
    all += json;
  }
  // The pinned seeds between them render every event type.
  for (const char* type :
       {"ViewInstalled", "StateTransition", "VipAcquired", "VipReleased",
        "BalanceRound", "Reallocation", "Disconnect", "ArpAnnounce",
        "FaultInjected", "FaultHealed", "ArpConflict", "GroupFenced",
        "GroupUnfenced", "PanicRelease", "CorruptionDetected", "SelfHeal"}) {
    EXPECT_NE(all.find(std::string("\"type\":\"") + type + '"'),
              std::string::npos)
        << type;
  }
}

}  // namespace
}  // namespace wam::chaos
