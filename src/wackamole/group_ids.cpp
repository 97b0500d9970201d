#include "wackamole/group_ids.hpp"

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

}  // namespace wam::wackamole
