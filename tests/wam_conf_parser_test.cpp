#include "wackamole/conf_parser.hpp"

#include <gtest/gtest.h>

#include "wam_fixture.hpp"

namespace wam::wackamole {
namespace {

constexpr const char* kFull = R"(
# production-ish config
Group = wack1
Mature = 30s
Balance = 60s
SpreadRetryInterval = 2s
ArpShare = 10s
Announce = 500ms
RepresentativeDriven = yes
Prefer = web-a, web-b

VirtualInterfaces {
  { if0: 10.0.0.100/32 }
  web-a { if0: 10.0.0.101/32 }
  web-b { if0: 10.0.0.102/32 }
  router { if0: 203.0.113.1/32 if1: 198.51.100.101/32 }
}
)";

/// Whether a daemon running `config` is mature right after start().
bool started_mature(const Config& config) {
  testing::WamCluster cluster(1, config);
  cluster.start_wam();
  return cluster.wams[0]->mature();
}

TEST(ConfParser, FullConfig) {
  auto c = parse_config(kFull);
  EXPECT_EQ(c.group, "wack1");
  EXPECT_EQ(sim::to_seconds(c.maturity_timeout), 30.0);
  EXPECT_FALSE(started_mature(c));
  EXPECT_EQ(sim::to_seconds(c.balance_timeout), 60.0);
  EXPECT_EQ(sim::to_seconds(c.reconnect_interval), 2.0);
  EXPECT_EQ(sim::to_seconds(c.arp_share_interval), 10.0);
  EXPECT_EQ(sim::to_millis(c.announce_interval), 500.0);
  EXPECT_TRUE(c.representative_driven);
  EXPECT_EQ(c.preferred, (std::vector<std::string>{"web-a", "web-b"}));
  ASSERT_EQ(c.vip_groups.size(), 4u);
  EXPECT_EQ(c.vip_groups[0].name, "10.0.0.100");  // unnamed: first address
  EXPECT_EQ(c.vip_groups[3].name, "router");
  ASSERT_EQ(c.vip_groups[3].addresses.size(), 2u);
  EXPECT_EQ(c.vip_groups[3].addresses[1].second, 1);  // if1
}

TEST(ConfParser, MinimalConfig) {
  auto c = parse_config("VirtualInterfaces {\n{ if0: 10.0.0.1 }\n}\n");
  EXPECT_EQ(c.group, "wackamole");
  ASSERT_EQ(c.vip_groups.size(), 1u);
}

TEST(ConfParser, MatureZeroMeansStartMature) {
  auto c = parse_config(
      "Mature = 0s\nVirtualInterfaces {\n{ if0: 10.0.0.1 }\n}\n");
  EXPECT_EQ(c.maturity_timeout, sim::kZero);
  EXPECT_TRUE(started_mature(c));
}

TEST(ConfParser, PreferNoneIsEmpty) {
  auto c = parse_config(
      "Prefer = None\nVirtualInterfaces {\n{ if0: 10.0.0.1 }\n}\n");
  EXPECT_TRUE(c.preferred.empty());
}

TEST(ConfParser, SlashSuffixOptional) {
  auto c = parse_config("VirtualInterfaces {\n{ if2: 10.0.0.9 }\n}\n");
  EXPECT_EQ(c.vip_groups[0].addresses[0].second, 2);
  EXPECT_EQ(c.vip_groups[0].addresses[0].first,
            net::Ipv4Address(10, 0, 0, 9));
}

TEST(ConfParser, Errors) {
  EXPECT_THROW(parse_config("Bogus = 1\n"), ConfigError);
  EXPECT_THROW(parse_config("Mature = fast\n"), ConfigError);
  EXPECT_THROW(parse_config("Mature = 5\n"), ConfigError);  // unit required
  EXPECT_THROW(parse_config("RepresentativeDriven = maybe\n"), ConfigError);
  EXPECT_THROW(parse_config("VirtualInterfaces {\n{ eth0: 10.0.0.1 }\n}\n"),
               ConfigError);
  EXPECT_THROW(parse_config("VirtualInterfaces {\n{ if0: 999.0.0.1 }\n}\n"),
               ConfigError);
  EXPECT_THROW(parse_config("VirtualInterfaces {\n{ }\n}\n"), ConfigError);
  EXPECT_THROW(parse_config("VirtualInterfaces {\n{ if0: 10.0.0.1 }\n"),
               ConfigError);  // unterminated
  // Duplicate address across groups -> validation failure.
  EXPECT_THROW(parse_config("VirtualInterfaces {\n{ if0: 10.0.0.1 }\n"
                            "{ if0: 10.0.0.1 }\n}\n"),
               ConfigError);
  // Preference naming an unknown group.
  EXPECT_THROW(parse_config("Prefer = nope\nVirtualInterfaces {\n"
                            "{ if0: 10.0.0.1 }\n}\n"),
               ConfigError);
}

TEST(ConfParser, CommentsEverywhere) {
  auto c = parse_config(
      "# header\nGroup = g # trailing\nVirtualInterfaces { # open\n"
      "{ if0: 10.0.0.1 } # entry\n} # close\n");
  EXPECT_EQ(c.group, "g");
  EXPECT_EQ(c.vip_groups.size(), 1u);
}

TEST(ConfParser, RenderRoundTrips) {
  auto c1 = parse_config(kFull);
  auto text = render_config(c1);
  auto c2 = parse_config(text);
  EXPECT_EQ(c2.group, c1.group);
  EXPECT_EQ(c2.maturity_timeout, c1.maturity_timeout);
  EXPECT_EQ(c2.balance_timeout, c1.balance_timeout);
  EXPECT_EQ(c2.representative_driven, c1.representative_driven);
  EXPECT_EQ(c2.preferred, c1.preferred);
  ASSERT_EQ(c2.vip_groups.size(), c1.vip_groups.size());
  for (std::size_t i = 0; i < c1.vip_groups.size(); ++i) {
    EXPECT_EQ(c2.vip_groups[i].name, c1.vip_groups[i].name);
    EXPECT_EQ(c2.vip_groups[i].addresses, c1.vip_groups[i].addresses);
  }
}

}  // namespace
}  // namespace wam::wackamole
