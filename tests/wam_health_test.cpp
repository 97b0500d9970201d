// Application/NIC health monitoring (§4.2 future work implemented):
// a failing local service triggers withdrawal (graceful leave), recovery
// triggers rejoin.
#include <gtest/gtest.h>

#include "apps/cluster_scenario.hpp"
#include "apps/echo.hpp"
#include "wackamole/health.hpp"
#include "util/assert.hpp"

namespace wam::wackamole {
namespace {

struct HealthTest : ::testing::Test {
  apps::ClusterOptions opt;
  std::unique_ptr<apps::ClusterScenario> s;

  void SetUp() override {
    opt.num_servers = 3;
    opt.num_vips = 6;
    s = std::make_unique<apps::ClusterScenario>(opt);
    s->start();
    ASSERT_TRUE(s->run_until_stable(sim::seconds(10.0)));
    s->wam(0).trigger_balance();
    s->run(sim::seconds(1.0));
  }

  std::unique_ptr<HealthMonitor> monitor_on(int i, HealthMonitorConfig cfg) {
    auto m = std::make_unique<HealthMonitor>(s->sched, s->wam(i), cfg,
                                             &s->log);
    // Probe the local echo server through the primary address.
    m->add_check(std::make_unique<UdpServiceCheck>(
        s->server_host(i), s->server_host(i).primary_ip(0), 9000));
    return m;
  }
};

TEST_F(HealthTest, HealthyServiceNeverWithdraws) {
  auto mon = monitor_on(1, HealthMonitorConfig{});
  mon->start();
  s->run(sim::seconds(20.0));
  EXPECT_FALSE(mon->withdrawn());
  EXPECT_EQ(mon->withdrawals(), 0u);
  EXPECT_FALSE(s->wam(1).owned().empty());
}

TEST_F(HealthTest, DeadServiceTriggersWithdrawal) {
  auto mon = monitor_on(1, HealthMonitorConfig{sim::seconds(1.0), 3, 2});
  mon->start();
  s->run(sim::seconds(3.0));
  ASSERT_FALSE(s->wam(1).owned().empty());

  // Kill the application only — the network and GCS stay healthy, so
  // without the monitor nobody would ever fail over.
  s->server_host(1).close_udp(9000);
  s->run(sim::seconds(10.0));

  EXPECT_TRUE(mon->withdrawn());
  EXPECT_EQ(mon->withdrawals(), 1u);
  EXPECT_TRUE(s->wam(1).owned().empty());
  // The survivors cover everything.
  EXPECT_TRUE(s->coverage_exactly_once({0, 2}));
  EXPECT_NE(mon->last_failed_check().find("udp:"), std::string::npos);
}

TEST_F(HealthTest, RecoveredServiceRejoins) {
  auto mon = monitor_on(1, HealthMonitorConfig{sim::seconds(1.0), 3, 2});
  mon->start();
  s->run(sim::seconds(3.0));
  s->server_host(1).close_udp(9000);
  s->run(sim::seconds(10.0));
  ASSERT_TRUE(mon->withdrawn());

  // Bring the application back.
  apps::EchoServer echo2(s->server_host(1));
  echo2.start();
  s->run(sim::seconds(10.0));
  EXPECT_FALSE(mon->withdrawn());
  EXPECT_EQ(mon->rejoins(), 1u);
  EXPECT_TRUE(s->wam(1).connected());
  EXPECT_TRUE(s->coverage_exactly_once({0, 1, 2}));
}

TEST_F(HealthTest, FailThresholdToleratesBlips) {
  auto mon = monitor_on(1, HealthMonitorConfig{sim::seconds(1.0), 5, 2});
  mon->start();
  s->run(sim::seconds(3.0));
  // A 2-second outage (2 failed checks < threshold 5) must not withdraw.
  s->server_host(1).close_udp(9000);
  s->run(sim::seconds(2.2));
  apps::EchoServer echo2(s->server_host(1));
  echo2.start();
  s->run(sim::seconds(10.0));
  EXPECT_FALSE(mon->withdrawn());
  EXPECT_EQ(mon->withdrawals(), 0u);
}

// Regression: a service answering slower than the check interval used to
// satisfy the NEXT round with the PREVIOUS round's reply — one stale
// in-flight echo per interval kept a dead-slow (or just-killed) service
// "healthy" forever. Probes now carry a round sequence number and only a
// reply bearing the current round's tag counts.
TEST_F(HealthTest, SlowServiceRepliesAreStaleNotHealthy) {
  // An echo service whose replies take 1.5 check intervals: every round's
  // probe is answered, but always after the NEXT probe was already sent.
  const std::uint16_t port = 9100;
  s->server_host(1).open_udp(
      port, [this, port](const net::Host::UdpContext& ctx,
                         const util::SharedBytes& payload) {
        auto reply = payload.to_bytes();
        auto src = ctx.src_ip;
        auto sport = ctx.src_port;
        auto dst = ctx.dst_ip;
        s->sched.schedule(sim::seconds(1.5), [this, port, reply, src, sport,
                                              dst] {
          s->server_host(1).send_udp_from(dst, src, sport, port, reply);
        });
      });

  HealthMonitorConfig cfg{sim::seconds(1.0), 3, 2};
  auto mon = std::make_unique<HealthMonitor>(s->sched, s->wam(1), cfg,
                                             &s->log);
  mon->add_check(std::make_unique<UdpServiceCheck>(
      s->server_host(1), s->server_host(1).primary_ip(0), port));
  mon->start();
  s->run(sim::seconds(10.0));
  EXPECT_TRUE(mon->withdrawn())
      << "stale replies from earlier rounds must not count as healthy";
  EXPECT_TRUE(s->coverage_exactly_once({0, 2}));
}

// The recover threshold is a hysteresis band: a flapping service that never
// strings together `recover_threshold` consecutive healthy checks must stay
// withdrawn, and rejoin exactly once when it finally stabilizes.
TEST_F(HealthTest, FlappingServiceStaysWithdrawnUntilStable) {
  auto mon = monitor_on(1, HealthMonitorConfig{sim::seconds(1.0), 2, 3});
  mon->start();
  // Checks tick on whole seconds from here; flipping the service at x.5
  // offsets keeps every up/down window an exact two ticks wide.
  s->run(sim::seconds(2.5));
  s->server_host(1).close_udp(9000);
  s->run(sim::seconds(5.0));
  ASSERT_TRUE(mon->withdrawn());

  // Flap: up for ~2 checks (below recover_threshold 3), down for ~2, thrice.
  std::vector<std::unique_ptr<apps::EchoServer>> echoes;
  for (int cycle = 0; cycle < 3; ++cycle) {
    echoes.push_back(std::make_unique<apps::EchoServer>(s->server_host(1)));
    echoes.back()->start();
    s->run(sim::seconds(2.0));
    s->server_host(1).close_udp(9000);
    s->run(sim::seconds(2.0));
  }
  EXPECT_TRUE(mon->withdrawn());
  EXPECT_EQ(mon->rejoins(), 0u)
      << "sub-threshold healthy streaks must not trigger a rejoin";

  // Stable recovery: rejoin exactly once.
  echoes.push_back(std::make_unique<apps::EchoServer>(s->server_host(1)));
  echoes.back()->start();
  s->run(sim::seconds(10.0));
  EXPECT_FALSE(mon->withdrawn());
  EXPECT_EQ(mon->rejoins(), 1u);
  EXPECT_TRUE(s->coverage_exactly_once({0, 1, 2}));
}

TEST_F(HealthTest, InterfaceCheckDetectsNicDown) {
  HealthMonitorConfig cfg{sim::seconds(1.0), 2, 2};
  auto mon = std::make_unique<HealthMonitor>(s->sched, s->wam(1), cfg,
                                             &s->log);
  mon->add_check(std::make_unique<InterfaceCheck>(s->server_host(1), 0));
  mon->start();
  s->run(sim::seconds(3.0));
  s->server_host(1).set_interface_up(0, false);
  s->run(sim::seconds(5.0));
  EXPECT_TRUE(mon->withdrawn());
  EXPECT_NE(mon->last_failed_check().find("nic:"), std::string::npos);
}

TEST_F(HealthTest, MonitorConfigValidation) {
  EXPECT_THROW(HealthMonitor(s->sched, s->wam(0),
                             HealthMonitorConfig{sim::kZero, 3, 2}),
               util::ContractViolation);
  EXPECT_THROW(HealthMonitor(s->sched, s->wam(0),
                             HealthMonitorConfig{sim::seconds(1.0), 0, 2}),
               util::ContractViolation);
}

}  // namespace
}  // namespace wam::wackamole
