// Representative-driven allocation mode (§4.2): the representative alone
// computes Reallocate_IPs() and imposes it via ALLOC_MSG. Outcomes must
// match the distributed mode's invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/events.hpp"
#include "obs/observability.hpp"
#include "wackamole/wire.hpp"
#include "wam_fixture.hpp"

namespace wam::testing {
namespace {

wackamole::Config rep_config(int vips) {
  auto c = test_config(vips);
  c.representative_driven = true;
  return c;
}

TEST(WamRepresentative, ClusterConvergesToExactlyOnce) {
  WamCluster c(3, rep_config(6));
  c.start_wam();
  c.run(sim::seconds(5.0));
  c.expect_correctness({0, 1, 2}, "rep-driven initial");
}

TEST(WamRepresentative, FaultReallocation) {
  WamCluster c(3, rep_config(6));
  c.start_wam();
  c.run(sim::seconds(5.0));
  ASSERT_TRUE(c.wams[0]->trigger_balance());
  c.run(sim::seconds(1.0));
  c.hosts[2]->set_interface_up(0, false);
  c.run(sim::seconds(5.0));
  c.expect_correctness({0, 1}, "rep-driven after fault");
  c.expect_correctness({2}, "isolated still covers (it is its own rep)");
}

TEST(WamRepresentative, RepresentativeDeathStillConverges) {
  // The representative itself dies mid-operation: the new view has a new
  // representative, which re-runs the allocation.
  WamCluster c(3, rep_config(6));
  c.start_wam();
  c.run(sim::seconds(5.0));
  c.hosts[0]->set_interface_up(0, false);  // rep = lowest ip = host 0
  c.run(sim::seconds(6.0));
  c.expect_correctness({1, 2}, "after representative death");
}

TEST(WamRepresentative, MergeResolvesConflicts) {
  WamCluster c(4, rep_config(8));
  c.start_wam();
  c.run(sim::seconds(5.0));
  c.partition({{0, 1}, {2, 3}});
  c.run(sim::seconds(8.0));
  c.expect_correctness({0, 1}, "rep-driven partition A");
  c.expect_correctness({2, 3}, "rep-driven partition B");
  c.merge();
  c.run(sim::seconds(8.0));
  c.expect_correctness({0, 1, 2, 3}, "rep-driven merge");
}

TEST(WamRepresentative, OnlyRepresentativeComputes) {
  WamCluster c(3, rep_config(6));
  c.start_wam();
  c.run(sim::seconds(5.0));
  // reallocations counts representative decisions in this mode; only the
  // representative of each view increments it.
  EXPECT_GT(c.wams[0]->counters().reallocations, 0u);
  EXPECT_EQ(c.wams[1]->counters().reallocations, 0u);
  EXPECT_EQ(c.wams[2]->counters().reallocations, 0u);
}

TEST(WamRepresentative, SameFinalAllocationAsDistributedMode) {
  // After identical histories, both modes must land in a table satisfying
  // exactly-once with the same group universe; run the balance round so
  // both are also even.
  WamCluster rep(3, rep_config(6));
  rep.start_wam();
  rep.run(sim::seconds(5.0));
  rep.wams[0]->trigger_balance();
  rep.run(sim::seconds(1.0));

  WamCluster dist(3, test_config(6));
  dist.start_wam();
  dist.run(sim::seconds(5.0));
  dist.wams[0]->trigger_balance();
  dist.run(sim::seconds(1.0));

  rep.expect_correctness({0, 1, 2}, "rep");
  dist.expect_correctness({0, 1, 2}, "dist");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rep.wams[static_cast<std::size_t>(i)]->owned().size(),
              dist.wams[static_cast<std::size_t>(i)]->owned().size());
  }
}

/// A WamCluster whose daemons publish into one event timeline ("wam/s<N>").
struct ObservedCluster : WamCluster {
  obs::Observability obs;
  obs::EventTimeline& timeline = obs.bus;

  ObservedCluster(int n, wackamole::Config config) : WamCluster(n, config) {
    for (int i = 0; i < n; ++i) {
      wams[static_cast<std::size_t>(i)]->bind_observability(
          obs, "wam/s" + std::to_string(i + 1));
    }
  }

  /// kReallocation events from time `since` on, as "source mode" strings.
  std::vector<std::string> reallocations_since(sim::TimePoint since) const {
    std::vector<std::string> out;
    for (const auto& e : timeline.events()) {
      if (e.time < since || e.type != obs::EventType::kReallocation) continue;
      out.push_back(std::string(e.source) + " " + *e.field("mode"));
    }
    return out;
  }

  /// Multicast `payload` into the wackamole group from a non-member client.
  void inject(util::Bytes payload) {
    gcs::Client injector("injector", gcs::ClientCallbacks{});
    ASSERT_TRUE(injector.connect(*daemons[0]));
    injector.multicast(wams[0]->config().group, std::move(payload));
    run(sim::seconds(1.0));
    injector.disconnect();
  }
};

TEST(WamRepresentative, NotifyFenceIsReallocatedByTheRepresentativeAlone) {
  auto config = rep_config(2);
  config.backoff_jitter = 0.0;
  config.quarantine_cooldown = sim::seconds(60.0);  // stays fenced here
  ObservedCluster c(3, config);
  // s1 starts alone and claims both groups; the joiners find no hole, and
  // one balance round moves one group to a joiner.
  c.start_all();
  c.wams[0]->start();
  c.run(sim::seconds(5.0));
  c.wams[1]->start();
  c.wams[2]->start();
  c.run(sim::seconds(3.0));
  ASSERT_TRUE(c.wams[0]->is_representative());
  ASSERT_TRUE(c.wams[0]->trigger_balance());
  c.run(sim::seconds(1.0));
  c.expect_correctness({0, 1, 2}, "settled");
  ASSERT_EQ(c.wams[0]->owned().size(), 1u);
  const std::size_t holder = c.wams[1]->owned().empty() ? 2 : 1;
  const std::size_t empty = 3 - holder;
  ASSERT_EQ(c.wams[holder]->owned().size(), 1u);
  ASSERT_TRUE(c.wams[empty]->owned().empty());
  const auto group = c.wams[holder]->owned().front();
  const auto rep_before = c.wams[0]->counters().reallocations.value();

  // The holder leaves: the representative hands its group to the empty
  // member (the least loaded), whose enforcement layer fails the whole
  // retry budget. It fences the group and broadcasts NOTIFY; only the
  // representative reallocates, and the group lands on s1.
  for (int i = 0; i < config.acquire_retry_limit; ++i) {
    c.ipmgrs[empty]->push_result(wackamole::OsOpResult::failed("ebusy"));
  }
  const auto t0 = c.sched.now();
  c.wams[holder]->graceful_shutdown();
  c.run(sim::seconds(5.0));

  EXPECT_TRUE(c.wams[empty]->quarantined(group));
  EXPECT_EQ(c.wams[empty]->counters().groups_fenced.value(), 1u);
  EXPECT_EQ(c.reallocations_since(t0),
            (std::vector<std::string>{"wam/s1 representative",
                                      "wam/s1 notify"}));
  EXPECT_EQ(c.wams[0]->counters().reallocations.value(), rep_before + 2);
  EXPECT_EQ(c.wams[empty]->counters().reallocations.value(), 0u);
  EXPECT_TRUE(c.ipmgrs[0]->holds(wackamole::intern_group(group)));
  c.expect_correctness({0, static_cast<int>(empty)},
                       "after the NOTIFY reallocation");
}

TEST(WamRepresentative, GatherAlwaysCountsAReallocationAnEmptyNotifyNone) {
  for (bool representative : {true, false}) {
    SCOPED_TRACE(representative ? "representative" : "deterministic");
    auto config = test_config(2);
    config.representative_driven = representative;
    ObservedCluster c(3, config);
    c.start_all();
    c.wams[0]->start();
    c.wams[1]->start();
    c.run(sim::seconds(5.0));
    c.expect_correctness({0, 1}, "settled");
    std::vector<std::uint64_t> before;
    for (auto& w : c.wams) {
      before.push_back(w->counters().reallocations.value());
    }

    // s3 joins: its GATHER finds every group covered (zero holes) and still
    // counts one reallocation per decider.
    auto t0 = c.sched.now();
    c.wams[2]->start();
    c.run(sim::seconds(3.0));
    c.expect_correctness({0, 1, 2}, "after the join");
    if (representative) {
      EXPECT_EQ(c.reallocations_since(t0),
                (std::vector<std::string>{"wam/s1 representative"}));
    } else {
      auto events = c.reallocations_since(t0);
      std::sort(events.begin(), events.end());
      EXPECT_EQ(events, (std::vector<std::string>{"wam/s1 deterministic",
                                                  "wam/s2 deterministic",
                                                  "wam/s3 deterministic"}));
    }
    for (int i = 0; i < 3; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_EQ(c.wams[idx]->counters().reallocations.value(),
                before[idx] + (representative && i > 0 ? 0u : 1u))
          << "server " << i;
    }

    // A NOTIFY fencing a group its sender does not own opens no hole: the
    // NOTIFY pass counts nothing anywhere.
    wackamole::NotifyMsg notify;
    notify.view = wackamole::ViewTag::of(*c.wams[0]->view());
    notify.group = c.wams[0]->config().group_names().front();
    notify.fenced = true;
    notify.reason = "ebusy";
    std::vector<std::uint64_t> after_join;
    for (auto& w : c.wams) {
      after_join.push_back(w->counters().reallocations.value());
    }
    t0 = c.sched.now();
    c.inject(wackamole::encode_notify(notify));
    for (int i = 0; i < 3; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_EQ(c.wams[idx]->counters().notifies_received.value(), 1u)
          << "server " << i;
      EXPECT_EQ(c.wams[idx]->counters().reallocations.value(), after_join[idx])
          << "server " << i;
    }
    EXPECT_TRUE(c.reallocations_since(t0).empty());
    c.expect_correctness({0, 1, 2}, "after the NOTIFY");
  }
}

class RepPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepPropertyTest, RandomFaultsPreserveCorrectness) {
  sim::Rng rng(GetParam() * 31 + 7);
  WamCluster c(4, rep_config(7));
  c.start_wam();
  c.run(sim::seconds(5.0));
  for (int phase = 0; phase < 6; ++phase) {
    int k = static_cast<int>(rng.range(1, 2));
    std::vector<std::vector<int>> groups(static_cast<std::size_t>(k));
    for (int i = 0; i < 4; ++i) {
      groups[rng.below(static_cast<std::uint64_t>(k))].push_back(i);
    }
    std::vector<std::vector<int>> nonempty;
    for (auto& g : groups) {
      if (!g.empty()) nonempty.push_back(g);
    }
    c.partition(nonempty);
    c.run(sim::seconds(8.0));
    for (const auto& component : nonempty) {
      c.expect_correctness(component,
                           ("rep phase " + std::to_string(phase)).c_str());
    }
  }
  c.merge();
  c.run(sim::seconds(8.0));
  c.expect_correctness({0, 1, 2, 3}, "rep final");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepPropertyTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace wam::testing
