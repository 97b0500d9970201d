// Log echo bytes, pinned: with WAM_LOG=1 set before the worlds are built,
// the stderr of two chaos seeds (the cluster and state-fault worlds of
// ObsTimelinePin) keeps its length and 64-bit FNV-1a digest, so a change
// to a line's header, to a message or to how an argument renders shows
// here. This binary sets WAM_LOG for itself only.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "timeline_pins.hpp"

namespace wam::chaos {
namespace {

struct EchoPin {
  const Pin& world;
  std::size_t bytes;
  std::uint64_t digest;
};

TEST(LogEchoPin, SeedEchoKeepsItsBytes) {
  ASSERT_EQ(::setenv("WAM_LOG", "1", 1), 0);
  const EchoPin pins[] = {
      {kPins[0], 20644, 3186000202715488270ULL},
      {kPins[1], 41023, 8131906455259513417ULL},
  };
  for (const EchoPin& pin : pins) {
    testing::internal::CaptureStderr();
    timeline_of(pin.world);
    const std::string echo = testing::internal::GetCapturedStderr();
    EXPECT_EQ(echo.size(), pin.bytes) << pin.world.name;
    EXPECT_EQ(fnv1a(echo), pin.digest) << pin.world.name;
  }
}

}  // namespace
}  // namespace wam::chaos
