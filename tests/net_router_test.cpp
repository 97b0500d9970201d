#include "net/router.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace wam::net {
namespace {

// Topology: client -- external segment -- router -- cluster segment -- server
struct RouterTest : ::testing::Test {
  sim::Scheduler sched;
  Fabric fabric{sched};
  SegmentId external = fabric.add_segment();
  SegmentId cluster = fabric.add_segment();
  Router router{sched, fabric, "router"};
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> server;

  void SetUp() override {
    router.attach_network(external, Ipv4Address(172, 16, 0, 1), 24);
    router.attach_network(cluster, Ipv4Address(10, 0, 0, 1), 24);

    client = std::make_unique<Host>(sched, fabric, "client");
    client->add_interface(external, Ipv4Address(172, 16, 0, 2), 24);
    client->set_default_gateway(Ipv4Address(172, 16, 0, 1));

    server = std::make_unique<Host>(sched, fabric, "server");
    server->add_interface(cluster, Ipv4Address(10, 0, 0, 2), 24);
    server->set_default_gateway(Ipv4Address(10, 0, 0, 1));
  }
};

TEST_F(RouterTest, ForwardsAcrossSegments) {
  int got = 0;
  server->open_udp(9000, [&](const Host::UdpContext& ctx,
                             const util::SharedBytes&) {
    ++got;
    EXPECT_EQ(ctx.src_ip, Ipv4Address(172, 16, 0, 2));
  });
  client->send_udp(Ipv4Address(10, 0, 0, 2), 9000, 1, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(router.host().counters().ip_forwarded, 1u);
}

TEST_F(RouterTest, RoundTripThroughRouter) {
  server->open_udp(9000, [&](const Host::UdpContext& ctx,
                             const util::SharedBytes&) {
    server->send_udp_from(ctx.dst_ip, ctx.src_ip, ctx.src_port, ctx.dst_port,
                          {42});
  });
  int replies = 0;
  client->open_udp(1, [&](const Host::UdpContext&, const util::SharedBytes& p) {
    EXPECT_EQ(p[0], 42);
    ++replies;
  });
  client->send_udp(Ipv4Address(10, 0, 0, 2), 9000, 1, {1});
  sched.run_all();
  EXPECT_EQ(replies, 1);
}

TEST_F(RouterTest, TtlExpiryDropsPacket) {
  // Two routers in a loop would decrement TTL to zero; emulate by sending a
  // packet with ttl=1 through the router.
  server->open_udp(9000, [](const Host::UdpContext&,
                            const util::SharedBytes&) {});
  // Craft a ttl=1 packet by sending from a host whose stack we can reach:
  // simplest is via the router's own forward path with a pre-built frame.
  UdpDatagram dgram{1, 9000, {1}};
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(172, 16, 0, 2);
  pkt.dst = Ipv4Address(10, 0, 0, 2);
  pkt.ttl = 1;
  pkt.payload = dgram.encode();
  // Resolve router MAC first through a normal exchange.
  client->send_udp(Ipv4Address(10, 0, 0, 2), 9000, 1, {0});
  sched.run_all();
  auto fwd_before = router.host().counters().ip_forwarded;
  auto router_mac = *client->arp_cache().lookup(Ipv4Address(172, 16, 0, 1),
                                                sched.now());
  Frame f{client->mac(0), router_mac, EtherType::kIpv4, pkt.encode()};
  fabric.send(client->nic_id(0), std::move(f));
  sched.run_all();
  EXPECT_EQ(router.host().counters().ip_forwarded, fwd_before);
}

TEST_F(RouterTest, VipFailoverAcrossRouterNeedsArpSpoof) {
  // Figure 3: server owns a VIP; it dies; a second server takes the VIP and
  // must spoof the ROUTER's cache for forwarding to resume.
  auto vip = Ipv4Address(10, 0, 0, 100);
  auto server2 = std::make_unique<Host>(sched, fabric, "server2");
  server2->add_interface(cluster, Ipv4Address(10, 0, 0, 3), 24);
  server2->set_default_gateway(Ipv4Address(10, 0, 0, 1));

  int got1 = 0, got2 = 0;
  server->open_udp(9000, [&](const Host::UdpContext&,
                             const util::SharedBytes&) {
    ++got1;
  });
  server2->open_udp(9000, [&](const Host::UdpContext&,
                              const util::SharedBytes&) {
    ++got2;
  });
  server->add_alias(0, vip);

  client->send_udp(vip, 9000, 1, {1});
  sched.run_all();
  EXPECT_EQ(got1, 1);

  server->fail();
  server2->add_alias(0, vip);
  client->send_udp(vip, 9000, 1, {2});
  sched.run_all();
  EXPECT_EQ(got2, 0);  // router cache still points at the dead server

  server2->send_spoofed_reply(0, vip, Ipv4Address(10, 0, 0, 1));
  sched.run_all();
  client->send_udp(vip, 9000, 1, {3});
  sched.run_all();
  EXPECT_EQ(got2, 1);
}

TEST_F(RouterTest, StaticRouteViaSecondRouter) {
  // A third network reachable only via another router on the cluster side.
  SegmentId back = fabric.add_segment();
  Router inner{sched, fabric, "inner"};
  inner.attach_network(cluster, Ipv4Address(10, 0, 0, 200), 24);
  inner.attach_network(back, Ipv4Address(192, 168, 5, 1), 24);
  auto db = std::make_unique<Host>(sched, fabric, "db");
  db->add_interface(back, Ipv4Address(192, 168, 5, 2), 24);
  db->set_default_gateway(Ipv4Address(192, 168, 5, 1));

  router.host().add_route(Ipv4Network(Ipv4Address(192, 168, 5, 0), 24),
                          Ipv4Address(10, 0, 0, 200));

  int got = 0;
  db->open_udp(9000, [&](const Host::UdpContext&, const util::SharedBytes&) {
    ++got;
  });
  client->send_udp(Ipv4Address(192, 168, 5, 2), 9000, 1, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace wam::net
