#include "wackamole/group_ids.hpp"

#include <algorithm>
#include <unordered_map>

namespace wam::wackamole {

util::Interner& group_interner() {
  // Function-local static: constructed on first use, never destroyed order
  // problems — daemons and tables in static scope may outlive main().
  static util::Interner* table = new util::Interner();
  return *table;
}

GroupId intern_group(std::string_view name) {
  // Keys view the interner's own strings, which never move or die, so the
  // cache stores no copy of a name.
  thread_local std::unordered_map<std::string_view, GroupId> cache;
  if (auto it = cache.find(name); it != cache.end()) return it->second;
  const GroupId id = group_interner().intern(name);
  cache.emplace(group_name(id), id);
  return id;
}

GroupSet::GroupSet(const std::vector<std::string>& group_names)
    : names(group_names) {
  // Callers usually pass Config::group_names(), which is sorted already.
  if (!std::is_sorted(names.begin(), names.end())) {
    std::sort(names.begin(), names.end());
  }
  ids.reserve(names.size());
  canonical.reserve(names.size());
  for (std::uint32_t p = 0; p < names.size(); ++p) {
    ids.push_back(intern_group(names[p]));
    canonical.push_back(p > 0 && names[p] == names[p - 1] ? canonical[p - 1]
                                                         : p);
    if (ids[p] >= pos_.size()) pos_.resize(ids[p] + 1, kAbsent);
    // First occurrence wins => canonical position.
    if (pos_[ids[p]] == kAbsent) pos_[ids[p]] = p;
  }
}

std::optional<std::uint32_t> GroupSet::position_of_name(
    std::string_view name) const {
  auto it = std::lower_bound(names.begin(), names.end(), name);
  if (it == names.end() || *it != name) return std::nullopt;
  return static_cast<std::uint32_t>(it - names.begin());
}

}  // namespace wam::wackamole
