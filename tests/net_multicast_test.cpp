#include <gtest/gtest.h>

#include <memory>

#include "net/host.hpp"
#include "util/assert.hpp"

namespace wam::net {
namespace {

const Ipv4Address kGroup(239, 1, 2, 3);

struct MulticastTest : ::testing::Test {
  sim::Scheduler sched;
  Fabric fabric{sched};
  SegmentId seg = fabric.add_segment();

  std::unique_ptr<Host> make_host(const std::string& name, int octet) {
    auto h = std::make_unique<Host>(sched, fabric, name);
    h->add_interface(
        seg, Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(octet)), 24);
    return h;
  }
};

TEST(MulticastAddress, ClassDDetection) {
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Address(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Address(240, 0, 0, 0).is_multicast());
  EXPECT_FALSE(Ipv4Address(10, 0, 0, 1).is_multicast());
}

TEST(MulticastAddress, MacMapping) {
  // 239.1.2.3 -> 01:00:5e:01:02:03 (low 23 bits).
  auto mac = MacAddress::multicast_for(kGroup);
  EXPECT_EQ(mac.to_string(), "01:00:5e:01:02:03");
  EXPECT_TRUE(mac.is_group());
  EXPECT_FALSE(mac.is_broadcast());
  // 239.129.2.3: bit 23 of the group is dropped by the mapping.
  EXPECT_EQ(MacAddress::multicast_for(Ipv4Address(239, 129, 2, 3)),
            MacAddress::multicast_for(Ipv4Address(239, 1, 2, 3)));
}

TEST(MulticastAddress, GroupBit) {
  EXPECT_TRUE(MacAddress::broadcast().is_group());
  EXPECT_FALSE(MacAddress::from_index(3).is_group());
}

TEST_F(MulticastTest, OnlyMembersReceive) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  auto c = make_host("c", 3);
  int got_b = 0, got_c = 0;
  b->open_udp(7000, [&](const Host::UdpContext&, const util::SharedBytes&) {
    ++got_b;
  });
  c->open_udp(7000, [&](const Host::UdpContext&, const util::SharedBytes&) {
    ++got_c;
  });
  b->join_multicast(0, kGroup);
  // c has the socket but did NOT join: it must see nothing (the broadcast
  // transport would have delivered here — this is multicast's point).
  a->send_udp_multicast(0, kGroup, 7000, 7000, {1});
  sched.run_all();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 0);
}

TEST_F(MulticastTest, SenderLoopbackOnlyWhenJoined) {
  auto a = make_host("a", 1);
  int got = 0;
  a->open_udp(7000, [&](const Host::UdpContext&, const util::SharedBytes&) {
    ++got;
  });
  a->send_udp_multicast(0, kGroup, 7000, 7000, {1});
  sched.run_all();
  EXPECT_EQ(got, 0);
  a->join_multicast(0, kGroup);
  a->send_udp_multicast(0, kGroup, 7000, 7000, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(MulticastTest, LeaveStopsDelivery) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  int got = 0;
  b->open_udp(7000, [&](const Host::UdpContext&, const util::SharedBytes&) {
    ++got;
  });
  b->join_multicast(0, kGroup);
  a->send_udp_multicast(0, kGroup, 7000, 7000, {1});
  sched.run_all();
  EXPECT_EQ(got, 1);
  b->leave_multicast(0, kGroup);
  a->send_udp_multicast(0, kGroup, 7000, 7000, {2});
  sched.run_all();
  EXPECT_EQ(got, 1);
}

TEST_F(MulticastTest, PartitionConfinesMulticast) {
  auto a = make_host("a", 1);
  auto b = make_host("b", 2);
  int got = 0;
  b->open_udp(7000, [&](const Host::UdpContext&, const util::SharedBytes&) {
    ++got;
  });
  b->join_multicast(0, kGroup);
  fabric.set_partition(seg, {{a->nic_id(0)}, {b->nic_id(0)}});
  a->send_udp_multicast(0, kGroup, 7000, 7000, {1});
  sched.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(MulticastTest, RejectsNonMulticastGroup) {
  auto a = make_host("a", 1);
  EXPECT_THROW(a->join_multicast(0, Ipv4Address(10, 0, 0, 99)),
               util::ContractViolation);
  EXPECT_THROW(a->send_udp_multicast(0, Ipv4Address(10, 0, 0, 99), 7, 7, {1}),
               util::ContractViolation);
}

}  // namespace
}  // namespace wam::net
