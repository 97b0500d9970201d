#include "net/host.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace wam::net {
namespace {

struct HostTest : ::testing::Test {
  sim::Scheduler sched;
  Fabric fabric{sched};
  SegmentId seg = fabric.add_segment();

  std::unique_ptr<Host> make_host(const std::string& name, int last_octet) {
    auto h = std::make_unique<Host>(sched, fabric, name);
    h->add_interface(seg, Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(
                                                    last_octet)),
                     24);
    return h;
  }
};

TEST_F(HostTest, UdpBetweenTwoHostsWithArpResolution) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  std::vector<std::string> got;
  b->open_udp(9000, [&](const Host::UdpContext& ctx,
                        const util::SharedBytes& p) {
    got.emplace_back(p.begin(), p.end());
    EXPECT_EQ(ctx.src_ip, Ipv4Address(10, 0, 0, 1));
    EXPECT_EQ(ctx.dst_ip, Ipv4Address(10, 0, 0, 2));
  });
  util::Bytes payload{'h', 'i'};
  a->send_udp(Ipv4Address(10, 0, 0, 2), 9000, 1234, payload);
  sched.run_all();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hi");
  // ARP resolved: one request, and both sides learned mappings.
  EXPECT_EQ(a->counters().arp_requests_sent, 1u);
  EXPECT_TRUE(a->arp_cache().contains(Ipv4Address(10, 0, 0, 2)));
  EXPECT_TRUE(b->arp_cache().contains(Ipv4Address(10, 0, 0, 1)));
}

TEST_F(HostTest, SecondSendUsesCachedArp) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  b->open_udp(9000, [](const Host::UdpContext&, const util::SharedBytes&) {});
  a->send_udp(Ipv4Address(10, 0, 0, 2), 9000, 1, {1});
  sched.run_all();
  a->send_udp(Ipv4Address(10, 0, 0, 2), 9000, 1, {2});
  sched.run_all();
  EXPECT_EQ(a->counters().arp_requests_sent, 1u);
  EXPECT_EQ(b->counters().udp_received, 2u);
}

TEST_F(HostTest, ReplyUsesRequestDestinationAsSource) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  b->add_alias(0, Ipv4Address(10, 0, 0, 100));
  Ipv4Address reply_src;
  a->open_udp(5555, [&](const Host::UdpContext& ctx, const util::SharedBytes&) {
    reply_src = ctx.src_ip;
  });
  b->open_udp(9000, [&](const Host::UdpContext& ctx, const util::SharedBytes&) {
    // Answer from the VIP the request was addressed to.
    b->send_udp_from(ctx.dst_ip, ctx.src_ip, ctx.src_port, ctx.dst_port, {1});
  });
  a->send_udp(Ipv4Address(10, 0, 0, 100), 9000, 5555, {0});
  sched.run_all();
  EXPECT_EQ(reply_src, Ipv4Address(10, 0, 0, 100));
}

TEST_F(HostTest, AliasReceivesTraffic) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  b->add_alias(0, Ipv4Address(10, 0, 0, 50));
  int got = 0;
  b->open_udp(7, [&](const Host::UdpContext&,
                     const util::SharedBytes&) { ++got; });
  a->send_udp(Ipv4Address(10, 0, 0, 50), 7, 7, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(b->owns_ip(Ipv4Address(10, 0, 0, 50)));
  b->remove_alias(0, Ipv4Address(10, 0, 0, 50));
  EXPECT_FALSE(b->owns_ip(Ipv4Address(10, 0, 0, 50)));
}

TEST_F(HostTest, AddressOwnershipAcrossInterfaces) {
  auto h = make_host("h", 1);
  const SegmentId other = fabric.add_segment();
  h->add_interface(other, Ipv4Address(192, 168, 0, 1), 24);
  // Enough aliases to grow the index several times, bound out of order.
  std::vector<Ipv4Address> vips;
  for (int k = 200; k >= 0; --k) {
    vips.emplace_back(10, 0, static_cast<std::uint8_t>(1 + k / 100),
                      static_cast<std::uint8_t>(k % 100));
    h->add_alias(k % 2, vips.back());
  }
  std::vector<Ipv4Address> on0;
  std::vector<Ipv4Address> on1;
  for (int k = 0; k <= 200; ++k) {
    (k % 2 == 0 ? on0 : on1).push_back(vips[static_cast<std::size_t>(200 - k)]);
  }
  std::sort(on0.begin(), on0.end());
  std::sort(on1.begin(), on1.end());
  EXPECT_EQ(h->aliases(0), on0);  // ascending, primaries not listed
  EXPECT_EQ(h->aliases(1), on1);
  EXPECT_EQ(h->ifindex_of_ip(Ipv4Address(192, 168, 0, 1)), 1);
  EXPECT_EQ(h->ifindex_of_ip(on1.front()), 1);
  EXPECT_EQ(h->ifindex_of_ip(Ipv4Address(10, 9, 9, 9)), -1);

  // Unbinding every other alias keeps the rest reachable (deletion shifts
  // later entries of a probe run back).
  for (std::size_t i = 0; i < vips.size(); i += 2) {
    h->remove_alias(static_cast<int>((200 - i) % 2), vips[i]);
  }
  for (std::size_t i = 0; i < vips.size(); ++i) {
    EXPECT_EQ(h->owns_ip(vips[i]), i % 2 == 1) << vips[i].to_string();
  }

  // The same address on both interfaces: the lowest index owns it, and
  // removing an alias never drops a primary address.
  const Ipv4Address shared(10, 0, 9, 9);
  h->add_alias(1, shared);
  h->add_alias(0, shared);
  EXPECT_EQ(h->ifindex_of_ip(shared), 0);
  h->remove_alias(0, shared);
  EXPECT_EQ(h->ifindex_of_ip(shared), 1);
  h->remove_alias(0, h->primary_ip(0));
  EXPECT_TRUE(h->owns_ip(h->primary_ip(0)));
  EXPECT_EQ(h->ifindex_of_ip(h->primary_ip(0)), 0);
}

TEST_F(HostTest, RemovedAliasStopsAnsweringArp) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  auto vip = Ipv4Address(10, 0, 0, 50);
  b->add_alias(0, vip);
  b->remove_alias(0, vip);
  b->open_udp(7, [](const Host::UdpContext&, const util::SharedBytes&) {});
  a->send_udp(vip, 7, 7, {1});
  sched.run_all();
  EXPECT_EQ(b->counters().udp_received, 0u);
  // ARP retries exhausted, packet dropped.
  EXPECT_GE(a->counters().arp_resolution_failures, 1u);
}

TEST_F(HostTest, BroadcastUdpReachesAllListeners) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  auto c = make_host("c", 3);
  int got_b = 0, got_c = 0;
  b->open_udp(4803, [&](const Host::UdpContext&,
                        const util::SharedBytes&) { ++got_b; });
  c->open_udp(4803, [&](const Host::UdpContext&,
                        const util::SharedBytes&) { ++got_c; });
  a->send_udp_broadcast(0, 4803, 4803, {1});
  sched.run_all();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
}

TEST_F(HostTest, GratuitousArpUpdatesOnlyExistingEntries) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  auto c = make_host("c", 3);
  auto vip = Ipv4Address(10, 0, 0, 50);
  // a has an entry for the VIP pointing at b; c has never heard of it.
  a->arp_cache().put(vip, b->mac(), sched.now());

  c->add_alias(0, vip);
  c->send_gratuitous_arp(0, vip);
  sched.run_all();

  EXPECT_EQ(*a->arp_cache().lookup(vip, sched.now()), c->mac());
  EXPECT_FALSE(b->arp_cache().contains(vip));
}

TEST_F(HostTest, SpoofedReplyInsertsIntoTargetCache) {
  auto a = make_host("a", 1);
  auto c = make_host("c", 3);
  auto vip = Ipv4Address(10, 0, 0, 50);
  ASSERT_FALSE(a->arp_cache().contains(vip));

  c->add_alias(0, vip);
  // c does not know a's MAC yet; the spoof path resolves it first.
  c->send_spoofed_reply(0, vip, Ipv4Address(10, 0, 0, 1));
  sched.run_all();

  ASSERT_TRUE(a->arp_cache().contains(vip));
  EXPECT_EQ(*a->arp_cache().lookup(vip, sched.now()), c->mac());
}

TEST_F(HostTest, StaleArpEntryBlackholesUntilSpoofed) {
  auto client = make_host("client", 1);
  auto old_owner = make_host("old", 2);
  auto new_owner = make_host("new", 3);
  auto vip = Ipv4Address(10, 0, 0, 50);

  old_owner->add_alias(0, vip);
  int got = 0;
  auto handler = [&](const Host::UdpContext&,
                     const util::SharedBytes&) { ++got; };
  old_owner->open_udp(7, handler);
  new_owner->open_udp(7, handler);

  client->send_udp(vip, 7, 7, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);

  // Owner dies; client's cached entry still points at the dead MAC.
  old_owner->fail();
  client->send_udp(vip, 7, 7, {2});
  sched.run_all();
  EXPECT_EQ(got, 1);  // black hole

  // Fail-over: new owner acquires the VIP and spoofs the client's cache.
  new_owner->add_alias(0, vip);
  new_owner->send_spoofed_reply(0, vip, Ipv4Address(10, 0, 0, 1));
  sched.run_all();
  client->send_udp(vip, 7, 7, {3});
  sched.run_all();
  EXPECT_EQ(got, 2);
}

TEST_F(HostTest, InterfaceDownStopsTraffic) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  int got = 0;
  b->open_udp(7, [&](const Host::UdpContext&,
                     const util::SharedBytes&) { ++got; });
  a->send_udp(Ipv4Address(10, 0, 0, 2), 7, 7, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(b->is_up());
  b->set_interface_up(0, false);
  EXPECT_FALSE(b->is_up());
  a->send_udp(Ipv4Address(10, 0, 0, 2), 7, 7, {2});
  sched.run_all();
  EXPECT_EQ(got, 1);
  b->recover();
  EXPECT_TRUE(b->is_up());
}

TEST_F(HostTest, NoRouteCounted) {
  auto a = make_host("a", 1);
  a->send_udp(Ipv4Address(99, 99, 99, 99), 7, 7, {1});
  EXPECT_EQ(a->counters().ip_no_route, 1u);
}

TEST_F(HostTest, DefaultGatewayRoutesOffSubnet) {
  auto a = make_host("a", 1);
  auto gw = make_host("gw", 254);
  a->set_default_gateway(Ipv4Address(10, 0, 0, 254));
  gw->enable_forwarding(true);
  a->send_udp(Ipv4Address(99, 99, 99, 99), 7, 7, {1});
  sched.run_all();
  // Reached the gateway, which had no onward route.
  EXPECT_EQ(gw->counters().ip_no_route, 1u);
}

TEST_F(HostTest, ClosedSocketCountsNoSocket) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  b->open_udp(7, [](const Host::UdpContext&, const util::SharedBytes&) {});
  b->close_udp(7);
  a->send_udp(Ipv4Address(10, 0, 0, 2), 7, 7, {1});
  sched.run_all();
  EXPECT_EQ(b->counters().udp_no_socket, 1u);
}

TEST_F(HostTest, OpenUdpRejectsDuplicatePort) {
  auto a = make_host("a", 1);
  EXPECT_TRUE(a->open_udp(7, [](const Host::UdpContext&,
                                const util::SharedBytes&) {}));
  EXPECT_FALSE(a->open_udp(7, [](const Host::UdpContext&,
                                 const util::SharedBytes&) {}));
}

TEST_F(HostTest, ArpQueueCapBoundsPendingPackets) {
  auto a = make_host("a", 1);
  a->arp_queue_cap = 4;
  for (int i = 0; i < 10; ++i) {
    a->send_udp(Ipv4Address(10, 0, 0, 77), 7, 7, {1});
  }
  sched.run_all();
  // Only the capped packets were ever queued (then dropped on failure).
  EXPECT_EQ(a->counters().arp_resolution_failures, 4u);
}

}  // namespace
}  // namespace wam::net
