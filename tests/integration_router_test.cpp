// Full-stack integration: Figure 4's virtual router built from N physical
// routers, with an indivisible VIP group spanning three networks.
#include <gtest/gtest.h>

#include "apps/router_scenario.hpp"

namespace wam::apps {
namespace {

TEST(IntegrationRouter, ExactlyOneActiveRouter) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  int active = s.active_router();
  ASSERT_GE(active, 0) << "no or conflicting active router";
  EXPECT_TRUE(s.holds_whole_group(active));
  for (int i = 0; i < s.num_routers(); ++i) {
    if (i != active) {
      EXPECT_TRUE(s.holds_nothing(i));
    }
  }
}

TEST(IntegrationRouter, GroupIsIndivisible) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  // At any sampled instant, no router holds a strict subset of the group.
  for (int round = 0; round < 20; ++round) {
    s.run(sim::milliseconds(250));
    for (int i = 0; i < s.num_routers(); ++i) {
      EXPECT_TRUE(s.holds_whole_group(i) || s.holds_nothing(i))
          << "router " << i << " holds a partial group";
    }
  }
}

TEST(IntegrationRouter, TrafficFlowsThroughVirtualRouter) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  s.start_probe();
  s.run(sim::seconds(1.0));
  EXPECT_GT(s.probe().responses().size(), 50u);
  EXPECT_EQ(s.probe().current_server(), "webserver");
}

TEST(IntegrationRouter, FailoverMovesWholeGroupAndRestoresService) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  s.start_probe();
  s.run(sim::seconds(1.0));
  int active = s.active_router();
  ASSERT_GE(active, 0);

  s.fail_router(active);
  s.run(sim::seconds(8.0));

  int heir = -1;
  for (int i = 0; i < s.num_routers(); ++i) {
    if (i != active && s.holds_whole_group(i)) heir = i;
  }
  ASSERT_GE(heir, 0) << "no surviving router took the group";
  // Service resumed: responses arrive again after the interruption.
  auto gaps = s.probe().interruptions();
  ASSERT_GE(gaps.size(), 1u);
  EXPECT_EQ(s.probe().current_server(), "webserver");
  // The interruption is dominated by the tuned GCS timeouts (~2-3 s).
  double secs = sim::to_seconds(gaps.back().length());
  EXPECT_GE(secs, 1.5);
  EXPECT_LE(secs, 4.0);
}

TEST(IntegrationRouter, RecoveredRouterDoesNotConflict) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  int active = s.active_router();
  ASSERT_GE(active, 0);
  s.fail_router(active);
  s.run(sim::seconds(8.0));
  s.recover_router(active);
  s.run(sim::seconds(8.0));
  int now_active = s.active_router();
  ASSERT_GE(now_active, 0) << "conflict or hole after recovery";
  EXPECT_TRUE(s.holds_whole_group(now_active));
}

TEST(IntegrationRouter, GracefulLeaveHandsOverQuickly) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  s.start_probe();
  s.run(sim::seconds(1.0));
  int active = s.active_router();
  ASSERT_GE(active, 0);
  s.graceful_leave(active);
  s.run(sim::seconds(3.0));
  int heir = s.active_router();
  ASSERT_GE(heir, 0);
  EXPECT_NE(heir, active);
  EXPECT_LE(sim::to_millis(s.probe().longest_gap()), 250.0);
}

TEST(IntegrationRouter, ThreeRoutersSurviveTwoFailures) {
  RouterScenarioOptions opt;
  opt.num_routers = 3;
  RouterScenario s(opt);
  s.start();
  s.run(sim::seconds(8.0));
  int first = s.active_router();
  ASSERT_GE(first, 0);
  s.fail_router(first);
  s.run(sim::seconds(8.0));
  int second = s.active_router();
  ASSERT_GE(second, 0);
  ASSERT_NE(second, first);
  s.fail_router(second);
  s.run(sim::seconds(8.0));
  int third = -1;
  for (int i = 0; i < 3; ++i) {
    if (i != first && i != second && s.holds_whole_group(i)) third = i;
  }
  EXPECT_GE(third, 0);
}

TEST(IntegrationRouter, DbTrafficAlsoTraversesVirtualRouter) {
  RouterScenario s(RouterScenarioOptions{});
  s.start();
  s.run(sim::seconds(8.0));
  // Web server talks to the DB server across segments via its VIP gateway.
  int got = 0;
  s.db_server().open_udp(7777, [&](const net::Host::UdpContext& ctx,
                                   const util::SharedBytes&) {
    ++got;
    s.db_server().send_udp_from(ctx.dst_ip, ctx.src_ip, ctx.src_port,
                                ctx.dst_port, {1});
  });
  int replies = 0;
  s.web_server().open_udp(7778, [&](const net::Host::UdpContext&,
                                    const util::SharedBytes&) { ++replies; });
  s.web_server().send_udp(net::Ipv4Address(192, 168, 0, 20), 7777, 7778, {0});
  s.run(sim::seconds(1.0));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(replies, 1);
}

TEST(IntegrationRouter, NaiveRoutingDelayDominatesFailover) {
  // §5.2: in the naive deployment the heir cannot forward until its
  // dynamic routing tables reconverge (modelled as 5 s here), so the
  // client-perceived interruption is hand-off + reconvergence.
  RouterScenarioOptions opt;
  opt.routing_convergence_delay = sim::seconds(5.0);
  RouterScenario s(opt);
  s.start();
  s.run(sim::seconds(15.0));  // initial owner also converges once
  s.start_probe();
  s.run(sim::seconds(1.0));
  int active = s.active_router();
  ASSERT_GE(active, 0);
  s.fail_router(active);
  s.run(sim::seconds(15.0));
  auto gaps = s.probe().interruptions(sim::milliseconds(500));
  ASSERT_GE(gaps.size(), 1u);
  double secs = sim::to_seconds(gaps.back().length());
  // ~2.3 s Wackamole hand-off + 5 s reconvergence.
  EXPECT_GE(secs, 6.5);
  EXPECT_LE(secs, 9.0);
}

TEST(IntegrationRouter, AdvertiseSetupSkipsReconvergence) {
  RouterScenarioOptions opt;  // routing_convergence_delay = 0
  RouterScenario s(opt);
  s.start();
  s.run(sim::seconds(8.0));
  s.start_probe();
  s.run(sim::seconds(1.0));
  int active = s.active_router();
  ASSERT_GE(active, 0);
  s.fail_router(active);
  s.run(sim::seconds(10.0));
  auto gaps = s.probe().interruptions(sim::milliseconds(500));
  ASSERT_GE(gaps.size(), 1u);
  EXPECT_LE(sim::to_seconds(gaps.back().length()), 4.0);
}

}  // namespace
}  // namespace wam::apps
