// TrafficSource API pins: ProbeConfig defaults reproduce the paper's
// hard-coded methodology byte-for-byte, scenarios accept any TrafficSource
// polymorphically, and TrafficReport merging is well-defined.
#include "apps/traffic_source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "apps/cluster_scenario.hpp"
#include "apps/probe_client.hpp"
#include "chaos/campaign.hpp"
#include "load/generator.hpp"

namespace wam::apps {
namespace {

TEST(ProbeConfig, DefaultsPinThePaperMethodology) {
  // These WERE hard-coded in ProbeClient; the config must not drift, or
  // every scenario and chaos seed in the repo changes behavior.
  ProbeConfig config;
  EXPECT_EQ(config.target_port, 9000);
  EXPECT_EQ(config.interval, sim::milliseconds(10));
  EXPECT_EQ(config.local_port, 30000);
}

TEST(ProbeConfig, BuilderChainsAndAddressConverts) {
  auto vip = net::Ipv4Address(10, 0, 0, 100);
  // Implicit conversion: an address is a config (migration path for the
  // old two-arg constructor call sites).
  ProbeConfig from_addr = vip;
  EXPECT_EQ(from_addr.target, vip);
  EXPECT_EQ(from_addr.interval, sim::milliseconds(10));

  auto built = ProbeConfig(vip)
                   .every(sim::milliseconds(5))
                   .port(8080)
                   .from_port(31000);
  EXPECT_EQ(built.target, vip);
  EXPECT_EQ(built.interval, sim::milliseconds(5));
  EXPECT_EQ(built.target_port, 8080);
  EXPECT_EQ(built.local_port, 31000);
}

TEST(TrafficReport, MergeSumsCountsAndKeepsMaxGap)
{
  TrafficReport a;
  a.requests_sent = 100;
  a.responses = 90;
  a.lost = 10;
  a.retries = 3;
  a.longest_gap = sim::seconds(2.0);
  TrafficReport b;
  b.requests_sent = 50;
  b.responses = 50;
  b.longest_gap = sim::seconds(5.0);
  a.merge(b);
  EXPECT_EQ(a.requests_sent, 150u);
  EXPECT_EQ(a.responses, 140u);
  EXPECT_EQ(a.lost, 10u);
  EXPECT_EQ(a.retries, 3u);
  EXPECT_EQ(a.longest_gap, sim::seconds(5.0));
  EXPECT_NEAR(a.availability(), 140.0 / 150.0, 1e-12);
}

TEST(TrafficReport, SummaryIsStructured) {
  TrafficReport r;
  r.requests_sent = 10;
  r.responses = 9;
  r.lost = 1;
  auto s = r.summary();
  EXPECT_NE(s.find("sent=10"), std::string::npos);
  EXPECT_NE(s.find("answered=9"), std::string::npos);
  EXPECT_NE(s.find("lost=1"), std::string::npos);
  EXPECT_NE(s.find("avail=0.9000"), std::string::npos);
}

TEST(TrafficSource, ScenarioAcceptsAnySourcePolymorphically) {
  ClusterOptions opt;
  opt.num_servers = 2;
  opt.num_vips = 4;
  opt.with_router = false;
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(60.0)));

  // One probe (built from options) and two differently configured
  // open-loop load generators — all through the same attach point.
  s.start_probe(0);
  load::LoadOptions steady;
  steady.vips = {s.vip(1)};
  steady.flows_per_second = 50.0;
  steady.poisson = false;
  steady.long_flow_fraction = 0.0;
  steady.local_port = 32002;
  s.attach_traffic(
      std::make_unique<load::LoadGenerator>(s.client_host(), steady));
  load::LoadOptions lopt;
  lopt.vips = {s.vip(2), s.vip(3)};
  lopt.flows_per_second = 500.0;
  lopt.local_port = 32001;
  s.attach_traffic(
      std::make_unique<load::LoadGenerator>(s.client_host(), lopt));
  s.run(sim::seconds(2.0));

  ASSERT_EQ(s.traffic().size(), 3u);
  auto total = s.traffic_report();
  EXPECT_GT(total.requests_sent, 0u);
  EXPECT_GT(total.responses, 0u);
  // All three sources individually reported traffic.
  for (const auto& source : s.traffic()) {
    EXPECT_GT(source->report().requests_sent, 0u);
  }
  // probe() still works as the typed accessor.
  EXPECT_GT(s.probe().requests_sent(), 0u);
}

// The DSL pinning test: a scenario that spells out the defaults must
// produce byte-identical output to one that relies on them.
TEST(TrafficSource, ScenarioDslProbeDefaultsAreByteIdentical) {
  const char* implicit_text =
      "servers 3\n"
      "vips 6\n"
      "at 1 probe 0\n"
      "at 3 disconnect server1\n"
      "at 20 coverage\n"
      "run 21\n";
  const char* explicit_text =
      "servers 3\n"
      "vips 6\n"
      "probe interval 0.01\n"
      "probe port 9000\n"
      "at 1 probe 0\n"
      "at 3 disconnect server1\n"
      "at 20 coverage\n"
      "run 21\n";
  std::ostringstream implicit_out;
  std::ostringstream explicit_out;
  EXPECT_TRUE(
      chaos::run_dsl(chaos::parse_dsl(implicit_text), implicit_out).empty());
  EXPECT_TRUE(
      chaos::run_dsl(chaos::parse_dsl(explicit_text), explicit_out).empty());
  EXPECT_EQ(implicit_out.str(), explicit_out.str());
  // The run actually exercised the probe and reported its traffic.
  EXPECT_NE(implicit_out.str().find("traffic: sent="), std::string::npos);
}

TEST(TrafficSource, ScenarioDslProbeKnobsApply) {
  auto parsed = chaos::parse_dsl(
      "servers 2\n"
      "probe interval 0.25\n"
      "probe port 1234\n"
      "run 5\n");
  EXPECT_EQ(parsed.world.probe.interval, sim::milliseconds(250));
  EXPECT_EQ(parsed.world.probe.target_port, 1234);
}

}  // namespace
}  // namespace wam::apps
