#include <gtest/gtest.h>

#include <memory>

#include "apps/echo.hpp"
#include "apps/probe_client.hpp"
#include "net/fabric.hpp"

namespace wam::apps {
namespace {

struct AppsTest : ::testing::Test {
  sim::Scheduler sched;
  net::Fabric fabric{sched};
  net::SegmentId seg = fabric.add_segment();

  std::unique_ptr<net::Host> make_host(const std::string& name, int octet) {
    auto h = std::make_unique<net::Host>(sched, fabric, name);
    h->add_interface(
        seg, net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(octet)), 24);
    return h;
  }
};

TEST_F(AppsTest, EchoRepliesWithHostname) {
  auto server = make_host("webserver1", 1);
  auto client = make_host("client", 2);
  EchoServer echo(*server);
  echo.start();
  std::string reply;
  util::Bytes echoed;
  client->open_udp(5000, [&](const net::Host::UdpContext&,
                             const util::SharedBytes& p) {
    util::ByteReader r(p);
    reply = r.str();
    echoed = r.raw(r.remaining());
  });
  client->send_udp(net::Ipv4Address(10, 0, 0, 1), 9000, 5000, {1});
  sched.run_all();
  EXPECT_EQ(reply, "webserver1");
  EXPECT_EQ(echoed, util::Bytes{1});  // request payload echoed back
  EXPECT_EQ(echo.requests_served(), 1u);
}

TEST_F(AppsTest, EchoRepliesFromTheVipItWasAskedOn) {
  auto server = make_host("s", 1);
  auto client = make_host("c", 2);
  auto vip = net::Ipv4Address(10, 0, 0, 100);
  server->add_alias(0, vip);
  EchoServer echo(*server);
  echo.start();
  net::Ipv4Address reply_src;
  client->open_udp(5000, [&](const net::Host::UdpContext& ctx,
                             const util::SharedBytes&) {
    reply_src = ctx.src_ip;
  });
  client->send_udp(vip, 9000, 5000, {1});
  sched.run_all();
  EXPECT_EQ(reply_src, vip);
}

TEST_F(AppsTest, EchoStopClosesSocket) {
  auto server = make_host("s", 1);
  auto client = make_host("c", 2);
  EchoServer echo(*server);
  echo.start();
  echo.stop();
  client->send_udp(net::Ipv4Address(10, 0, 0, 1), 9000, 5000, {1});
  sched.run_all();
  EXPECT_EQ(echo.requests_served(), 0u);
}

TEST_F(AppsTest, ProbeClientCountsResponses) {
  auto server = make_host("s", 1);
  auto client = make_host("c", 2);
  EchoServer echo(*server);
  echo.start();
  ProbeClient probe(*client, net::Ipv4Address(10, 0, 0, 1));
  probe.start();
  sched.run_for(sim::seconds(1.0));
  probe.stop();
  // 10 ms interval: ~100 requests, all answered.
  EXPECT_GE(probe.requests_sent(), 99u);
  EXPECT_GE(probe.responses().size(), 98u);
  EXPECT_EQ(probe.current_server(), "s");
  EXPECT_TRUE(probe.interruptions().empty());
}

TEST_F(AppsTest, ProbeClientMeasuresInterruption) {
  auto s1 = make_host("s1", 1);
  auto s2 = make_host("s2", 2);
  auto client = make_host("c", 3);
  auto vip = net::Ipv4Address(10, 0, 0, 100);
  EchoServer e1(*s1), e2(*s2);
  e1.start();
  e2.start();
  s1->add_alias(0, vip);

  ProbeClient probe(*client, vip);
  probe.start();
  sched.run_for(sim::seconds(1.0));

  // Manual fail-over with a 500 ms outage.
  s1->fail();
  sched.run_for(sim::milliseconds(500));
  s2->add_alias(0, vip);
  s2->send_gratuitous_arp(0, vip);
  sched.run_for(sim::seconds(1.0));

  auto gaps = probe.interruptions();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].server_before, "s1");
  EXPECT_EQ(gaps[0].server_after, "s2");
  double ms = sim::to_millis(gaps[0].length());
  EXPECT_GE(ms, 450.0);
  EXPECT_LE(ms, 650.0);
  EXPECT_EQ(probe.current_server(), "s2");
}

TEST_F(AppsTest, ProbeLongestGapTracksWorstOutage) {
  auto server = make_host("s", 1);
  auto client = make_host("c", 2);
  EchoServer echo(*server);
  echo.start();
  ProbeClient probe(*client, net::Ipv4Address(10, 0, 0, 1));
  probe.start();
  sched.run_for(sim::seconds(1.0));
  server->fail();
  sched.run_for(sim::milliseconds(300));
  server->recover();
  sched.run_for(sim::seconds(1.0));
  double ms = sim::to_millis(probe.longest_gap());
  EXPECT_GE(ms, 280.0);
  EXPECT_LE(ms, 400.0);
}

TEST_F(AppsTest, InterruptionThresholdFilters) {
  auto server = make_host("s", 1);
  auto client = make_host("c", 2);
  EchoServer echo(*server);
  echo.start();
  ProbeClient probe(*client, net::Ipv4Address(10, 0, 0, 1));
  probe.start();
  sched.run_for(sim::seconds(1.0));
  server->fail();
  sched.run_for(sim::milliseconds(100));
  server->recover();
  sched.run_for(sim::seconds(1.0));
  EXPECT_EQ(probe.interruptions(sim::milliseconds(500)).size(), 0u);
  EXPECT_EQ(probe.interruptions(sim::milliseconds(80)).size(), 1u);
}

}  // namespace
}  // namespace wam::apps
