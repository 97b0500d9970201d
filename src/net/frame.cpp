#include "net/frame.hpp"

namespace wam::net {

namespace {

constexpr std::size_t kArpSize = 2 + 6 + 4 + 6 + 4;

void write_ipv4_header(util::SpanWriter& w, Ipv4Address src, Ipv4Address dst,
                       std::uint8_t ttl, std::uint8_t protocol,
                       std::size_t payload_size) {
  w.u32(src.value());
  w.u32(dst.value());
  w.u8(ttl);
  w.u8(protocol);
  w.u32(static_cast<std::uint32_t>(payload_size));
}

void write_udp_header(util::SpanWriter& w, std::uint16_t src_port,
                      std::uint16_t dst_port, std::size_t payload_size) {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(static_cast<std::uint32_t>(payload_size));
}

}  // namespace

std::string Frame::describe() const {
  std::string kind = type == EtherType::kArp ? "ARP" : "IPv4";
  return kind + " " + src.to_string() + " -> " + dst.to_string() + " (" +
         std::to_string(payload.size()) + "B)";
}

util::SharedBytes ArpPacket::encode() const {
  return util::SharedBytes::build(kArpSize, [this](util::SpanWriter& w) {
    w.u16(static_cast<std::uint16_t>(op));
    w.raw(sender_mac.octets());
    w.u32(sender_ip.value());
    w.raw(target_mac.octets());
    w.u32(target_ip.value());
  });
}

ArpPacket ArpPacket::decode(util::ByteView buf) {
  util::ByteReader r(buf);
  ArpPacket p;
  auto op = r.u16();
  if (op != 1 && op != 2) throw util::DecodeError("bad ARP op");
  p.op = static_cast<ArpOp>(op);
  auto read_mac = [&r] {
    std::array<std::uint8_t, 6> octets{};
    for (auto& o : octets) o = r.u8();
    return MacAddress(octets);
  };
  p.sender_mac = read_mac();
  p.sender_ip = Ipv4Address(r.u32());
  p.target_mac = read_mac();
  p.target_ip = Ipv4Address(r.u32());
  r.expect_end();
  return p;
}

std::string ArpPacket::describe() const {
  if (op == ArpOp::kRequest) {
    return "who-has " + target_ip.to_string() + " tell " +
           sender_ip.to_string();
  }
  return sender_ip.to_string() + " is-at " + sender_mac.to_string() +
         (is_gratuitous() ? " (gratuitous)" : "");
}

util::SharedBytes Ipv4Packet::encode() const {
  return util::SharedBytes::build(
      kHeaderSize + payload.size(), [this](util::SpanWriter& w) {
        write_ipv4_header(w, src, dst, ttl, protocol, payload.size());
        w.raw(payload);
      });
}

Ipv4Packet Ipv4Packet::decode(const util::SharedBytes& buf) {
  util::ByteReader r(buf);
  Ipv4Packet p;
  p.src = Ipv4Address(r.u32());
  p.dst = Ipv4Address(r.u32());
  p.ttl = r.u8();
  p.protocol = r.u8();
  p.payload = r.shared_bytes();  // zero-copy slice of the frame buffer
  r.expect_end();
  return p;
}

util::SharedBytes UdpDatagram::encode() const {
  return util::SharedBytes::build(
      kHeaderSize + payload.size(), [this](util::SpanWriter& w) {
        write_udp_header(w, src_port, dst_port, payload.size());
        w.raw(payload);
      });
}

UdpDatagram UdpDatagram::decode(const util::SharedBytes& buf) {
  util::ByteReader r(buf);
  UdpDatagram d;
  d.src_port = r.u16();
  d.dst_port = r.u16();
  d.payload = r.shared_bytes();  // zero-copy slice of the packet buffer
  r.expect_end();
  return d;
}

util::SharedBytes encode_udp_ipv4(Ipv4Address src, Ipv4Address dst,
                                  std::uint16_t src_port,
                                  std::uint16_t dst_port,
                                  util::ByteView payload) {
  const std::size_t udp_size = UdpDatagram::kHeaderSize + payload.size();
  return util::SharedBytes::build(
      Ipv4Packet::kHeaderSize + udp_size, [&](util::SpanWriter& w) {
        write_ipv4_header(w, src, dst, kDefaultTtl, kProtoUdp, udp_size);
        write_udp_header(w, src_port, dst_port, payload.size());
        w.raw(payload);
      });
}

}  // namespace wam::net
