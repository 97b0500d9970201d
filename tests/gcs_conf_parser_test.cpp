#include "gcs/conf_parser.hpp"

#include <gtest/gtest.h>

namespace wam::gcs {
namespace {

TEST(GcsConfParser, FullConfig) {
  auto c = parse_config(
      "# tuned ring over multicast\n"
      "Port = 5100\n"
      "Multicast = 239.192.0.9\n"
      "Ordering = ring\n"
      "FaultDetection = 1s\n"
      "Heartbeat = 0.4s\n"
      "Discovery = 1.4s\n"
      "TokenHold = 2ms\n"
      "TokenRetry = 50ms\n"
      "TokenWindow = 32\n");
  EXPECT_EQ(c.port, 5100);
  EXPECT_EQ(c.multicast_group, net::Ipv4Address(239, 192, 0, 9));
  EXPECT_EQ(c.ordering, OrderingEngine::kTokenRing);
  EXPECT_EQ(sim::to_seconds(c.fault_detection_timeout), 1.0);
  EXPECT_EQ(sim::to_seconds(c.heartbeat_timeout), 0.4);
  EXPECT_EQ(sim::to_seconds(c.discovery_timeout), 1.4);
  EXPECT_EQ(sim::to_millis(c.token_hold), 2.0);
  EXPECT_EQ(c.token_window, 32);
}

TEST(GcsConfParser, DefaultsAreSpreadDefaults) {
  auto c = parse_config("");
  EXPECT_EQ(sim::to_seconds(c.fault_detection_timeout), 5.0);
  EXPECT_EQ(sim::to_seconds(c.heartbeat_timeout), 2.0);
  EXPECT_EQ(sim::to_seconds(c.discovery_timeout), 7.0);
  EXPECT_EQ(c.ordering, OrderingEngine::kSequencer);
  EXPECT_TRUE(c.multicast_group.is_any());
}

TEST(GcsConfParser, Errors) {
  EXPECT_THROW((void)parse_config("Bogus = 1\n"), ConfigError);
  EXPECT_THROW((void)parse_config("Port = 0\n"), ConfigError);
  EXPECT_THROW((void)parse_config("Port = 99999\n"), ConfigError);
  EXPECT_THROW((void)parse_config("Multicast = 10.0.0.1\n"), ConfigError);
  EXPECT_THROW((void)parse_config("Ordering = sideways\n"), ConfigError);
  EXPECT_THROW((void)parse_config("Heartbeat = fast\n"), ConfigError);
  EXPECT_THROW((void)parse_config("Heartbeat = 5\n"), ConfigError);
  // Validation: fault detection must exceed the heartbeat.
  EXPECT_THROW((void)parse_config("FaultDetection = 1s\nHeartbeat = 2s\n"),
               ConfigError);
}

TEST(GcsConfParser, RenderRoundTrips) {
  auto c1 = parse_config(
      "Multicast = 239.1.1.1\nOrdering = ring\nFaultDetection = 2s\n"
      "Heartbeat = 0.5s\nDiscovery = 3s\n");
  auto c2 = parse_config(render_config(c1));
  EXPECT_EQ(c2.multicast_group, c1.multicast_group);
  EXPECT_EQ(c2.ordering, c1.ordering);
  EXPECT_EQ(c2.fault_detection_timeout, c1.fault_detection_timeout);
  EXPECT_EQ(c2.heartbeat_timeout, c1.heartbeat_timeout);
  EXPECT_EQ(c2.discovery_timeout, c1.discovery_timeout);
  EXPECT_EQ(c2.token_window, c1.token_window);
}

TEST(GcsConfParser, CaseInsensitiveKeys) {
  auto c = parse_config("HEARTBEAT = 1s\nfaultdetection = 3s\n");
  EXPECT_EQ(sim::to_seconds(c.heartbeat_timeout), 1.0);
  EXPECT_EQ(sim::to_seconds(c.fault_detection_timeout), 3.0);
}

}  // namespace
}  // namespace wam::gcs
