// Wire formats for the simulated LAN.
//
// Frames carry serialized payloads (not in-memory object graphs) so that the
// simulation exercises real encode/decode paths: ARP packets and
// UDP-over-IPv4 datagrams round-trip through the endian-safe ByteWriter /
// ByteReader, and a corrupted or truncated payload surfaces as DecodeError.
//
// Payloads are util::SharedBytes: immutable, refcounted, copy-on-write.
// Copying a Frame — which the fabric does once per receiver on broadcast
// and multicast — bumps a reference count instead of deep-copying the
// bytes, and the IPv4/UDP decoders return their nested payloads as
// zero-copy slices of the enclosing frame's buffer. A UDP send builds its
// frame bytes once, in one pass, into one exactly-sized block
// (encode_udp_ipv4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/address.hpp"
#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"

namespace wam::net {

enum class EtherType : std::uint16_t {
  kArp = 0x0806,
  kIpv4 = 0x0800,
};

/// Ethernet-like frame: the unit the fabric moves between NICs.
struct Frame {
  MacAddress src;
  MacAddress dst;
  EtherType type = EtherType::kIpv4;
  util::SharedBytes payload;

  [[nodiscard]] std::string describe() const;
};

enum class ArpOp : std::uint16_t { kRequest = 1, kReply = 2 };

/// ARP packet (IPv4-over-Ethernet flavor only).
struct ArpPacket {
  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;  // ignored in requests
  Ipv4Address target_ip;

  /// Gratuitous announcements carry sender_ip == target_ip.
  [[nodiscard]] bool is_gratuitous() const { return sender_ip == target_ip; }

  /// One exactly-sized block, as every frame payload is.
  [[nodiscard]] util::SharedBytes encode() const;
  static ArpPacket decode(util::ByteView buf);

  [[nodiscard]] std::string describe() const;
};

constexpr std::uint8_t kProtoUdp = 17;
constexpr std::uint8_t kDefaultTtl = 64;

/// Minimal IPv4 header + payload.
struct Ipv4Packet {
  /// src, dst, ttl, protocol and the u32 payload length.
  static constexpr std::size_t kHeaderSize = 14;

  Ipv4Address src;
  Ipv4Address dst;
  std::uint8_t ttl = kDefaultTtl;
  std::uint8_t protocol = kProtoUdp;
  util::SharedBytes payload;

  [[nodiscard]] util::SharedBytes encode() const;
  /// The decoded payload is a zero-copy slice of `buf`'s storage.
  static Ipv4Packet decode(const util::SharedBytes& buf);
};

/// UDP datagram carried inside an Ipv4Packet payload.
struct UdpDatagram {
  /// Both ports and the u32 payload length.
  static constexpr std::size_t kHeaderSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  util::SharedBytes payload;

  [[nodiscard]] util::SharedBytes encode() const;
  /// The decoded payload is a zero-copy slice of `buf`'s storage.
  static UdpDatagram decode(const util::SharedBytes& buf);
};

/// The bytes of Ipv4Packet{src, dst, kDefaultTtl, kProtoUdp,
/// UdpDatagram{src_port, dst_port, payload}.encode()}.encode(), written in
/// one pass into one exactly-sized block: the encoder every UDP send uses.
[[nodiscard]] util::SharedBytes encode_udp_ipv4(Ipv4Address src,
                                                Ipv4Address dst,
                                                std::uint16_t src_port,
                                                std::uint16_t dst_port,
                                                util::ByteView payload);

}  // namespace wam::net
