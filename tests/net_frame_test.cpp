#include "net/frame.hpp"

#include <gtest/gtest.h>

#include "util/hexdump.hpp"

namespace wam::net {
namespace {

// ---- Golden wire bytes ----
//
// The exact bytes each encoder puts on the simulated wire. Every frame the
// hosts exchange is built from these layouts, so a change to any field,
// order or length prefix shows here first.

util::Bytes counting_payload(std::size_t n) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i + 1);
  }
  return out;
}

/// The nested two-encoder form of a UDP-in-IPv4 packet.
util::SharedBytes nested_udp_ipv4(std::uint8_t ttl, const util::Bytes& payload) {
  Ipv4Packet p;
  p.src = Ipv4Address(10, 0, 0, 1);
  p.dst = Ipv4Address(10, 0, 0, 2);
  p.ttl = ttl;
  p.payload = UdpDatagram{32000, 9000, payload}.encode();
  return p.encode();
}

TEST(WireGolden, ArpRequest) {
  ArpPacket p;
  p.op = ArpOp::kRequest;
  p.sender_mac = MacAddress::from_index(1);
  p.sender_ip = Ipv4Address(10, 0, 0, 1);
  p.target_ip = Ipv4Address(10, 0, 0, 2);
  EXPECT_EQ(util::hex(p.encode()),
            "00 01 02 00 00 00 00 01 0a 00 00 01 "
            "00 00 00 00 00 00 0a 00 00 02");
}

TEST(WireGolden, ArpReply) {
  ArpPacket p;
  p.op = ArpOp::kReply;
  p.sender_mac = MacAddress::from_index(2);
  p.sender_ip = Ipv4Address(10, 0, 0, 2);
  p.target_mac = MacAddress::from_index(1);
  p.target_ip = Ipv4Address(10, 0, 0, 1);
  EXPECT_EQ(util::hex(p.encode()),
            "00 02 02 00 00 00 00 02 0a 00 00 02 "
            "02 00 00 00 00 01 0a 00 00 01");
}

// Layout: IPv4 src, dst, ttl, protocol 17, u32 length; then UDP src port
// 32000 (7d 00), dst port 9000 (23 28), u32 length; then the payload.
TEST(WireGolden, UdpInIpv4Empty) {
  EXPECT_EQ(util::hex(nested_udp_ipv4(1, {})),
            "0a 00 00 01 0a 00 00 02 01 11 00 00 00 08 "
            "7d 00 23 28 00 00 00 00");
}

TEST(WireGolden, UdpInIpv4EightBytesTtl64) {
  EXPECT_EQ(util::hex(nested_udp_ipv4(64, counting_payload(8))),
            "0a 00 00 01 0a 00 00 02 40 11 00 00 00 10 "
            "7d 00 23 28 00 00 00 08 01 02 03 04 05 06 07 08");
}

TEST(WireGolden, UdpInIpv4ThreeHundredBytes) {
  const auto payload = counting_payload(300);
  const auto wire = nested_udp_ipv4(255, payload);
  ASSERT_EQ(wire.size(), 322u);
  EXPECT_EQ(util::hex({wire.data(), 22}),
            "0a 00 00 01 0a 00 00 02 ff 11 00 00 01 34 "
            "7d 00 23 28 00 00 01 2c");
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), wire.begin() + 22));
}

TEST(ArpPacket, RoundTrip) {
  ArpPacket p;
  p.op = ArpOp::kReply;
  p.sender_mac = MacAddress::from_index(3);
  p.sender_ip = Ipv4Address(10, 0, 0, 3);
  p.target_mac = MacAddress::from_index(7);
  p.target_ip = Ipv4Address(10, 0, 0, 7);

  auto decoded = ArpPacket::decode(p.encode());
  EXPECT_EQ(decoded.op, ArpOp::kReply);
  EXPECT_EQ(decoded.sender_mac, p.sender_mac);
  EXPECT_EQ(decoded.sender_ip, p.sender_ip);
  EXPECT_EQ(decoded.target_mac, p.target_mac);
  EXPECT_EQ(decoded.target_ip, p.target_ip);
}

TEST(ArpPacket, GratuitousDetection) {
  ArpPacket p;
  p.sender_ip = Ipv4Address(10, 0, 0, 3);
  p.target_ip = Ipv4Address(10, 0, 0, 3);
  EXPECT_TRUE(p.is_gratuitous());
  p.target_ip = Ipv4Address(10, 0, 0, 4);
  EXPECT_FALSE(p.is_gratuitous());
}

TEST(ArpPacket, DecodeRejectsBadOp) {
  ArpPacket p;
  auto bytes = p.encode().to_bytes();
  bytes[1] = 9;  // op low byte
  EXPECT_THROW(ArpPacket::decode(bytes), util::DecodeError);
}

TEST(ArpPacket, DecodeRejectsTruncation) {
  ArpPacket p;
  auto bytes = p.encode().to_bytes();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(ArpPacket::decode(bytes), util::DecodeError);
}

TEST(ArpPacket, DescribeMentionsOperation) {
  ArpPacket req;
  req.op = ArpOp::kRequest;
  req.sender_ip = Ipv4Address(10, 0, 0, 1);
  req.target_ip = Ipv4Address(10, 0, 0, 2);
  EXPECT_NE(req.describe().find("who-has 10.0.0.2"), std::string::npos);

  ArpPacket rep;
  rep.op = ArpOp::kReply;
  rep.sender_ip = Ipv4Address(10, 0, 0, 2);
  rep.target_ip = Ipv4Address(10, 0, 0, 2);
  EXPECT_NE(rep.describe().find("is-at"), std::string::npos);
  EXPECT_NE(rep.describe().find("gratuitous"), std::string::npos);
}

TEST(Ipv4Packet, RoundTrip) {
  Ipv4Packet p;
  p.src = Ipv4Address(10, 0, 0, 1);
  p.dst = Ipv4Address(10, 0, 0, 2);
  p.ttl = 7;
  p.payload = {1, 2, 3, 4};
  auto decoded = Ipv4Packet::decode(p.encode());
  EXPECT_EQ(decoded.src, p.src);
  EXPECT_EQ(decoded.dst, p.dst);
  EXPECT_EQ(decoded.ttl, 7);
  EXPECT_EQ(decoded.protocol, kProtoUdp);
  EXPECT_EQ(decoded.payload, p.payload);
}

TEST(UdpDatagram, RoundTrip) {
  UdpDatagram d{4803, 9999, {0xaa, 0xbb}};
  auto decoded = UdpDatagram::decode(d.encode());
  EXPECT_EQ(decoded.src_port, 4803);
  EXPECT_EQ(decoded.dst_port, 9999);
  EXPECT_EQ(decoded.payload, d.payload);
}

TEST(UdpDatagram, NestedInIpv4) {
  UdpDatagram d{1, 2, {9}};
  Ipv4Packet p;
  p.payload = d.encode();
  auto decoded = UdpDatagram::decode(Ipv4Packet::decode(p.encode()).payload);
  EXPECT_EQ(decoded.payload, d.payload);
}

// ---- The one-pass encoder every UDP send uses ----

TEST(EncodeUdpIpv4, EqualsTheNestedEncodersForEverySize) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 64; ++n) sizes.push_back(n);
  sizes.push_back(1400);
  for (std::size_t n : sizes) {
    const auto payload = counting_payload(n);
    const auto wire =
        encode_udp_ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                        32000, 9000, payload);
    EXPECT_EQ(wire, nested_udp_ipv4(kDefaultTtl, payload))
        << n << " payload bytes";
  }
}

TEST(EncodeUdpIpv4, DecodesToZeroCopySlicesOfOneBlock) {
  const util::Bytes payload{1, 2, 3, 4, 5};
  const auto wire = encode_udp_ipv4(Ipv4Address(10, 0, 0, 1),
                                    Ipv4Address(10, 0, 0, 2), 4803, 9000,
                                    payload);
  const auto pkt = Ipv4Packet::decode(wire);
  EXPECT_EQ(pkt.ttl, 64);
  EXPECT_EQ(pkt.protocol, kProtoUdp);
  const auto dgram = UdpDatagram::decode(pkt.payload);
  EXPECT_EQ(dgram.src_port, 4803);
  EXPECT_EQ(dgram.dst_port, 9000);
  EXPECT_EQ(dgram.payload, payload);
  EXPECT_TRUE(pkt.payload.shares_storage_with(wire));
  EXPECT_TRUE(dgram.payload.shares_storage_with(wire));
  EXPECT_EQ(dgram.payload.data(), wire.data() + 22);
}

TEST(Frame, DescribeShowsType) {
  Frame f{MacAddress::from_index(1), MacAddress::broadcast(), EtherType::kArp,
          {}};
  EXPECT_NE(f.describe().find("ARP"), std::string::npos);
}

}  // namespace
}  // namespace wam::net
