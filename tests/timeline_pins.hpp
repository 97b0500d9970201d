// The pinned chaos timelines (length and 64-bit FNV-1a of each seed's
// exported timeline JSON), shared by the tests that must reproduce them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "chaos/campaign.hpp"

namespace wam::chaos {

inline std::uint64_t fnv1a(std::string_view s) {
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

inline std::string timeline_of(const Pin& pin) {
  CampaignOptions opt;
  opt.shrink = false;
  opt.generator.os_faults = pin.os_faults;
  opt.generator.state_faults = pin.state_faults;
  return run_seed(pin.seed, pin.profile, opt).timeline_json;
}

inline constexpr Pin kPins[] = {
    {"cluster seed 4", 4, Profile::kCluster, false, false, 17292,
     8965985649278558276ULL},
    {"state-faults seed 7", 7, Profile::kCluster, false, true, 56044,
     17652554329986650737ULL},
    {"os-faults seed 11", 11, Profile::kCluster, true, false, 57448,
     11902762153916936534ULL},
    {"router seed 4", 4, Profile::kRouter, false, false, 7667,
     4070976261874725140ULL},
    {"state-faults seed 1", 1, Profile::kCluster, false, true, 105444,
     11154524607702753767ULL},
};

}  // namespace wam::chaos
