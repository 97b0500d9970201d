// The StateAuditor's blocks follow the daemon's name-sorted GroupSet, not
// GroupId / 64: GroupIds are first-use ids local to the process, so a
// layout by id would make detection times depend on what the process
// interned before. This binary interns unrelated names first, so that the
// seven groups of a chaos world get ids on both sides of 64, and checks
// that the state-fault seed still renders its pinned timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "timeline_pins.hpp"
#include "wackamole/group_ids.hpp"

namespace wam::chaos {
namespace {

TEST(AuditLayout, GroupIdsAcrossABlockBoundaryKeepThePinnedTimeline) {
  const Pin& pin = kPins[1];
  ASSERT_TRUE(pin.state_faults);
  // The chaos world's VIP groups are named after their addresses.
  std::vector<std::string> names;
  for (int k = 0; k < 7; ++k) {
    names.push_back(
        net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(100 + k))
            .to_string());
  }
  for (const auto& name : names) {
    ASSERT_FALSE(wackamole::find_group_id(name).has_value()) << name;
  }
  for (int i = 0; wackamole::group_interner().size() < 61; ++i) {
    (void)wackamole::intern_group("unrelated-" + std::to_string(i));
  }

  const std::string json = timeline_of(pin);

  std::vector<wackamole::GroupId> ids;
  for (const auto& name : names) {
    auto id = wackamole::find_group_id(name);
    ASSERT_TRUE(id.has_value()) << name;
    ids.push_back(*id);
  }
  EXPECT_LT(*std::min_element(ids.begin(), ids.end()), 64u);
  EXPECT_GE(*std::max_element(ids.begin(), ids.end()), 64u);
  EXPECT_EQ(json.size(), pin.bytes);
  EXPECT_EQ(fnv1a(json), pin.digest);
}

}  // namespace
}  // namespace wam::chaos
