// Timeline bytes, pinned: five chaos seeds whose exported timelines
// together carry every event type and every field value kind. Each
// timeline's length and 64-bit FNV-1a digest are pinned, so any change to
// what is recorded or how it renders shows here as a changed digest.
#include <gtest/gtest.h>

#include <string>

#include "timeline_pins.hpp"

namespace wam::chaos {
namespace {

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
