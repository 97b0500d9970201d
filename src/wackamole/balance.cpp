#include "wackamole/balance.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "util/assert.hpp"

namespace wam::wackamole {

std::vector<MemberState> to_member_states(
    const GroupSet& groups, const std::vector<MemberInfo>& members) {
  std::vector<MemberState> out;
  out.reserve(members.size());
  auto positions_of = [&](const std::set<std::string>& names) {
    // std::set iterates sorted and groups.names is sorted, so the output
    // positions come out sorted too — binary-search-ready.
    std::vector<std::uint32_t> positions;
    for (const auto& name : names) {
      if (auto pos = groups.position_of_name(name)) positions.push_back(*pos);
    }
    return positions;
  };
  for (const auto& m : members) {
    MemberState s;
    s.id = m.id;
    s.mature = m.mature;
    s.weight = m.weight;
    s.preferred = positions_of(m.preferred);
    s.quarantined = positions_of(m.quarantined);
    s.quarantined_any = !m.quarantined.empty();
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

/// Lazy-deletion min-heap entry: the member's load at push time. An entry
/// whose load no longer matches the live load array is stale and gets
/// discarded on pop; after every load increment a fresh entry is pushed,
/// so each heap-eligible member always has exactly one accurate entry.
struct HeapEntry {
  std::size_t load;
  std::uint32_t idx;  // index into the members vector
};

bool contains_pos(const std::vector<std::uint32_t>& sorted_positions,
                  std::uint32_t p) {
  return std::binary_search(sorted_positions.begin(), sorted_positions.end(),
                            p);
}

}  // namespace

Placement reallocate_ips_fast(const GroupSet& groups, const VipTable& table,
                              const std::vector<MemberState>& members) {
  Placement out;
  std::vector<std::uint32_t> mature;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    if (members[i].mature) mature.push_back(i);
  }
  if (mature.empty()) return out;

  const auto v_count = static_cast<std::uint32_t>(groups.size());

  // Per-group preferred-member lists at canonical positions, membership
  // order preserved so a strict-better scan keeps the earlier member.
  std::vector<std::vector<std::uint32_t>> prefers(v_count);
  for (auto mi : mature) {
    for (auto p : members[mi].preferred) prefers[p].push_back(mi);
  }

  std::vector<std::size_t> load(members.size(), 0);
  for (auto mi : mature) load[mi] = table.load_of(members[mi].id);

  // Holes in name order: positions are name-sorted, so an ascending scan
  // reproduces the reference's sorted uncovered() sequence.
  std::vector<std::uint32_t> holes;
  for (std::uint32_t p = 0; p < v_count; ++p) {
    if (!table.owner(groups.ids[p])) holes.push_back(p);
  }
  out.reserve(holes.size());

  // Weight-normalized load comparison by cross-multiplication (exact
  // integers): a carries less relative load than b iff la/wa < lb/wb.
  auto better = [&](std::uint32_t a, std::uint32_t b) {
    auto la = static_cast<long>(load[a]) * members[b].weight;
    auto lb = static_cast<long>(load[b]) * members[a].weight;
    return la < lb;
  };

  // The strictness-2 candidate pool: quarantine-free mature members, in a
  // min-heap keyed (weight-normalized load, membership order). The ratio
  // ordering is only a strict weak ordering for positive weights, so a
  // degenerate config with a non-positive weight falls back to linear
  // scans (pick_linear) and stays decision-identical anyway.
  std::vector<std::uint32_t> qfree;
  bool heap_ok = true;
  for (auto mi : mature) {
    if (!members[mi].quarantined_any) qfree.push_back(mi);
    if (members[mi].weight <= 0) heap_ok = false;
  }
  auto heap_worse = [&](const HeapEntry& a, const HeapEntry& b) {
    auto la = static_cast<long>(a.load) * members[b.idx].weight;
    auto lb = static_cast<long>(b.load) * members[a.idx].weight;
    if (la != lb) return la > lb;
    return a.idx > b.idx;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(heap_worse)>
      heap(heap_worse);
  if (heap_ok) {
    for (auto mi : qfree) heap.push({load[mi], mi});
  }

  // Reference pick(): full (preference, normalized load, order) scan over
  // one strictness tier. Tiers 1 and 0 are only reachable when zero
  // quarantine-free members exist, so linear cost there is irrelevant.
  auto pick_linear = [&](std::uint32_t cp, int strictness) -> std::int64_t {
    std::int64_t best = -1;
    for (auto mi : mature) {
      if (strictness >= 2 && members[mi].quarantined_any) continue;
      if (strictness >= 1 && contains_pos(members[mi].quarantined, cp)) {
        continue;
      }
      if (best < 0) {
        best = mi;
        continue;
      }
      bool pa = contains_pos(members[mi].preferred, cp);
      bool pb =
          contains_pos(members[static_cast<std::uint32_t>(best)].preferred,
                       cp);
      if (pa != pb) {
        if (pa) best = mi;
        continue;
      }
      if (better(mi, static_cast<std::uint32_t>(best))) best = mi;
    }
    return best;
  };

  for (auto p : holes) {
    auto cp = groups.canonical[p];
    std::int64_t winner = -1;
    if (heap_ok) {
      // Preference dominates the score, so a quarantine-free preferring
      // member beats the heap top regardless of load.
      for (auto mi : prefers[cp]) {
        if (members[mi].quarantined_any) continue;
        if (winner < 0 || better(mi, static_cast<std::uint32_t>(winner))) {
          winner = mi;
        }
      }
      if (winner < 0) {
        while (!heap.empty() && heap.top().load != load[heap.top().idx]) {
          heap.pop();
        }
        if (!heap.empty()) winner = heap.top().idx;
      }
    } else {
      winner = pick_linear(cp, 2);
    }
    if (winner < 0) winner = pick_linear(cp, 1);
    if (winner < 0) winner = pick_linear(cp, 0);  // forced coverage
    WAM_ASSERT(winner >= 0);
    auto w = static_cast<std::uint32_t>(winner);
    out.emplace_back(p, w);
    ++load[w];
    if (heap_ok && !members[w].quarantined_any) heap.push({load[w], w});
  }
  return out;
}

Placement balance_ips_fast(const GroupSet& groups, const VipTable& table,
                           const std::vector<MemberState>& members) {
  Placement out;
  std::vector<std::uint32_t> mature;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    if (members[i].mature) mature.push_back(i);
  }
  if (mature.empty()) return out;

  const auto v_count = static_cast<std::uint32_t>(groups.size());

  std::vector<std::vector<std::uint32_t>> prefers(v_count);
  for (auto mi : mature) {
    for (auto p : members[mi].preferred) prefers[p].push_back(mi);
  }

  // Largest-remainder targets — arithmetic identical to the reference,
  // including the equal-shares fallback when the advertised mature
  // weights sum to zero or less.
  long total_weight = 0;
  for (auto mi : mature) total_weight += members[mi].weight;
  const bool equal_shares = total_weight <= 0;
  if (equal_shares) total_weight = static_cast<long>(mature.size());
  std::vector<std::size_t> target(members.size(), 0);
  std::vector<std::pair<long, std::size_t>> remainders;  // (-rem, index)
  remainders.reserve(mature.size());
  std::size_t assigned_total = 0;
  for (std::size_t i = 0; i < mature.size(); ++i) {
    long num = static_cast<long>(v_count) *
               (equal_shares ? 1 : members[mature[i]].weight);
    auto base = static_cast<std::size_t>(num / total_weight);
    target[mature[i]] = base;
    assigned_total += base;
    remainders.emplace_back(-(num % total_weight), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t k = 0; assigned_total < v_count; ++k) {
    ++target[mature[remainders[k % remainders.size()].second]];
    ++assigned_total;
  }

  // Current holdings. The owner keeps a group only if it is mature and
  // not quarantined for it; everything else is homeless.
  std::unordered_map<gcs::MemberId, std::uint32_t, MemberIdHash> index_of;
  index_of.reserve(mature.size());
  for (auto mi : mature) index_of.emplace(members[mi].id, mi);

  std::vector<std::size_t> load(members.size(), 0);
  std::vector<std::vector<std::uint32_t>> held(members.size());
  std::vector<std::uint32_t> homeless;
  std::vector<std::int64_t> alloc(v_count, -1);
  for (std::uint32_t p = 0; p < v_count; ++p) {
    auto owner = table.owner(groups.ids[p]);
    std::int64_t omi = -1;
    if (owner) {
      auto it = index_of.find(*owner);
      if (it != index_of.end()) omi = it->second;
    }
    if (omi >= 0 &&
        !contains_pos(members[static_cast<std::uint32_t>(omi)].quarantined,
                      groups.canonical[p])) {
      held[static_cast<std::uint32_t>(omi)].push_back(p);
    } else {
      homeless.push_back(p);
    }
  }

  // Eviction from over-target members. Keep rank: own-preferred (0) <
  // neutral (1) < other-preferred (2); within a rank evict in reverse name
  // order — position order IS name order, so sorting (rank, position)
  // pairs reproduces the reference's string sort exactly.
  for (auto mi : mature) {
    auto& hg = held[mi];
    std::vector<std::pair<int, std::uint32_t>> ranked;
    ranked.reserve(hg.size());
    for (auto p : hg) {
      auto cp = groups.canonical[p];
      int rank = 1;
      if (contains_pos(members[mi].preferred, cp)) {
        rank = 0;
      } else {
        for (auto om : prefers[cp]) {
          if (om != mi) {
            rank = 2;
            break;
          }
        }
      }
      ranked.emplace_back(rank, p);
    }
    std::sort(ranked.begin(), ranked.end());
    hg.clear();
    for (const auto& [rank, p] : ranked) hg.push_back(p);
    while (hg.size() > target[mi]) {
      homeless.push_back(hg.back());
      hg.pop_back();
    }
    for (auto p : hg) alloc[p] = mi;
    load[mi] = hg.size();
  }

  // Homeless placement key is (not-preferred, raw load, membership order)
  // — no weight normalization here, matching the reference. Two lazy
  // heaps over quarantine-free members: `under` restricted to below-target
  // loads, `all` unrestricted. A fresh under-entry at/over target is
  // discarded for good: loads only grow during placement.
  std::vector<std::uint32_t> qfree;
  for (auto mi : mature) {
    if (!members[mi].quarantined_any) qfree.push_back(mi);
  }
  auto heap_worse = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.load != b.load) return a.load > b.load;
    return a.idx > b.idx;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(heap_worse)>
      under(heap_worse);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(heap_worse)>
      all(heap_worse);
  for (auto mi : qfree) {
    if (load[mi] < target[mi]) under.push({load[mi], mi});
    all.push({load[mi], mi});
  }
  auto top_of = [&](auto& heap, bool respect_target) -> std::int64_t {
    while (!heap.empty()) {
      auto e = heap.top();
      if (e.load != load[e.idx] ||
          (respect_target && e.load >= target[e.idx])) {
        heap.pop();
        continue;
      }
      return e.idx;
    }
    return -1;
  };

  // Reference place(): full scan of one (respect_target, strictness)
  // tier. Strictness 1/0 only run when zero quarantine-free members
  // exist, so the linear cost never shows on the fast path.
  auto place_linear = [&](std::uint32_t cp, bool respect_target,
                          int strictness) -> std::int64_t {
    std::int64_t best = -1;
    for (auto mi : mature) {
      if (respect_target && load[mi] >= target[mi]) continue;
      if (strictness >= 2 && members[mi].quarantined_any) continue;
      if (strictness >= 1 && contains_pos(members[mi].quarantined, cp)) {
        continue;
      }
      if (best < 0) {
        best = mi;
        continue;
      }
      auto b = static_cast<std::uint32_t>(best);
      auto ka = std::make_pair(!contains_pos(members[mi].preferred, cp),
                               load[mi]);
      auto kb =
          std::make_pair(!contains_pos(members[b].preferred, cp), load[b]);
      if (ka < kb) best = mi;
    }
    return best;
  };

  std::sort(homeless.begin(), homeless.end());
  for (auto p : homeless) {
    auto cp = groups.canonical[p];
    // place(true, 2): under-target quarantine-free, preferring members
    // first (preference dominates the key), then the under-heap top.
    std::int64_t winner = -1;
    for (auto mi : prefers[cp]) {
      if (members[mi].quarantined_any || load[mi] >= target[mi]) continue;
      if (winner < 0 || load[mi] < load[static_cast<std::uint32_t>(winner)]) {
        winner = mi;
      }
    }
    if (winner < 0) winner = top_of(under, true);
    if (winner < 0) {
      // place(false, 2): same pool, target constraint dropped.
      for (auto mi : prefers[cp]) {
        if (members[mi].quarantined_any) continue;
        if (winner < 0 ||
            load[mi] < load[static_cast<std::uint32_t>(winner)]) {
          winner = mi;
        }
      }
      if (winner < 0) winner = top_of(all, false);
    }
    if (winner < 0) winner = place_linear(cp, true, 1);
    if (winner < 0) winner = place_linear(cp, false, 1);
    // Forced coverage: every mature member is fenced for this group.
    if (winner < 0) winner = place_linear(cp, false, 0);
    WAM_ASSERT(winner >= 0);  // targets sum to n by construction
    auto w = static_cast<std::uint32_t>(winner);
    alloc[p] = w;
    ++load[w];
    if (!members[w].quarantined_any) {
      if (load[w] < target[w]) under.push({load[w], w});
      all.push({load[w], w});
    }
  }

  out.reserve(v_count);
  for (std::uint32_t p = 0; p < v_count; ++p) {
    WAM_ASSERT(alloc[p] >= 0);
    out.emplace_back(p, static_cast<std::uint32_t>(alloc[p]));
  }
  return out;
}

std::map<std::string, gcs::MemberId> reallocate_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members) {
  GroupSet groups(all_groups);
  auto states = to_member_states(groups, members);
  std::map<std::string, gcs::MemberId> out;
  for (const auto& [p, mi] : reallocate_ips_fast(groups, table, states)) {
    out.emplace(groups.names[p], members[mi].id);
  }
  return out;
}

std::map<std::string, gcs::MemberId> balance_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members) {
  GroupSet groups(all_groups);
  auto states = to_member_states(groups, members);
  std::map<std::string, gcs::MemberId> out;
  for (const auto& [p, mi] : balance_ips_fast(groups, table, states)) {
    out.emplace(groups.names[p], members[mi].id);
  }
  if (!out.empty()) WAM_ENSURES(out.size() == all_groups.size());
  return out;
}

std::size_t load_imbalance(const VipTable& table,
                           const std::vector<MemberInfo>& members) {
  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;
  bool any = false;
  for (const auto& m : members) {
    if (!m.mature) continue;
    any = true;
    auto load = table.load_of(m.id);
    lo = std::min(lo, load);
    hi = std::max(hi, load);
  }
  return any ? hi - lo : 0;
}

}  // namespace wam::wackamole
