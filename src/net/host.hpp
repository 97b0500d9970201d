// Simulated host: NICs, IP aliases (virtual IPs), ARP, UDP sockets,
// optional packet forwarding.
//
// This is the "operating system" substrate that the real Wackamole drives
// through ifconfig aliases and raw ARP sockets. The surface area mirrors
// what the paper's IP-address-control component needs:
//   * add_alias / remove_alias — acquire / release a virtual IP;
//   * send_gratuitous_arp — broadcast announcement that updates existing
//     ARP entries LAN-wide;
//   * send_spoofed_reply — unicast ARP reply aimed at one peer (the router
//     in Figure 3), which inserts/updates that peer's cache entry;
//   * set_interface_up(false) — the paper's fault ("disconnecting the
//     interface").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/arp_cache.hpp"
#include "net/fabric.hpp"
#include "net/frame.hpp"
#include "sim/log.hpp"

namespace wam::net {

/// Per-host statistics; a thin view over registry cells once the host is
/// bound to an obs::Observability (see obs/metrics.hpp).
struct HostCounters {
  obs::Counter udp_sent;
  obs::Counter udp_received;
  obs::Counter udp_no_socket;
  obs::Counter ip_forwarded;
  obs::Counter ip_no_route;
  obs::Counter ip_not_ours;
  obs::Counter arp_requests_sent;
  obs::Counter arp_replies_sent;
  obs::Counter arp_resolution_failures;
  obs::Counter decode_errors;

  void bind(obs::MetricRegistry& registry, const std::string& scope);
  void export_into(obs::MetricRegistry& registry,
                   const std::string& scope) const;
};

class Host {
 public:
  /// Metadata handed to UDP handlers along with the payload.
  struct UdpContext {
    Ipv4Address src_ip;
    std::uint16_t src_port = 0;
    Ipv4Address dst_ip;  // the address the sender targeted (a VIP, often)
    std::uint16_t dst_port = 0;
    int ifindex = 0;
  };
  /// UDP receive callback. The payload is a zero-copy view into the
  /// received frame's refcounted buffer; handlers that keep it only for
  /// the duration of the call (the normal case) never pay a copy; one that
  /// needs a mutable copy calls `payload.to_bytes()`.
  using UdpHandler =
      std::function<void(const UdpContext&, const util::SharedBytes& payload)>;

  Host(sim::Scheduler& sched, Fabric& fabric, std::string name,
       sim::Log* log = nullptr);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Attach an interface to a segment with a stationary primary address.
  /// Returns the interface index.
  int add_interface(SegmentId segment, Ipv4Address primary, int prefix_len);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int interface_count() const {
    return static_cast<int>(ifaces_.size());
  }
  [[nodiscard]] Ipv4Address primary_ip(int ifindex = 0) const;
  [[nodiscard]] MacAddress mac(int ifindex = 0) const;
  [[nodiscard]] NicId nic_id(int ifindex = 0) const;
  [[nodiscard]] Ipv4Network network(int ifindex = 0) const;

  // ---- Virtual IP management (the paper's acquire/release mechanism) ----
  void add_alias(int ifindex, Ipv4Address ip);
  void remove_alias(int ifindex, Ipv4Address ip);
  [[nodiscard]] bool owns_ip(Ipv4Address ip) const;
  [[nodiscard]] std::vector<Ipv4Address> aliases(int ifindex) const;
  /// Interface index owning `ip` (primary or alias), or -1.
  [[nodiscard]] int ifindex_of_ip(Ipv4Address ip) const;

  // ---- ARP ----
  /// Broadcast gratuitous announcement for `ip` (updates existing entries).
  void send_gratuitous_arp(int ifindex, Ipv4Address ip);
  /// Unicast a spoofed reply claiming `claimed_ip` at this host's MAC to the
  /// host owning `target_ip` (resolving its MAC first if needed).
  void send_spoofed_reply(int ifindex, Ipv4Address claimed_ip,
                          Ipv4Address target_ip);
  /// Duplicate-address detection: would another reachable host on this
  /// interface's segment answer a who-has for `ip`? (RFC 5227-style probe,
  /// answered synchronously by the fabric's ownership predicates.)
  [[nodiscard]] bool probe_address(int ifindex, Ipv4Address ip) const;
  [[nodiscard]] ArpCache& arp_cache() { return arp_; }
  [[nodiscard]] const ArpCache& arp_cache() const { return arp_; }

  // ---- UDP sockets ----
  /// Returns false if the port is already bound.
  bool open_udp(std::uint16_t port, UdpHandler handler);
  void close_udp(std::uint16_t port);
  void send_udp(Ipv4Address dst, std::uint16_t dst_port,
                std::uint16_t src_port, util::Bytes payload);
  /// Respond "from" a specific local address (e.g. the VIP a request hit).
  void send_udp_from(Ipv4Address src_ip, Ipv4Address dst,
                     std::uint16_t dst_port, std::uint16_t src_port,
                     util::Bytes payload);
  /// Limited broadcast on one interface (255.255.255.255).
  void send_udp_broadcast(int ifindex, std::uint16_t dst_port,
                          std::uint16_t src_port, util::Bytes payload);

  /// One datagram of a send_udp_burst() batch.
  struct UdpSend {
    Ipv4Address dst;
    std::uint16_t dst_port = 0;
    std::uint16_t src_port = 0;
    util::Bytes payload;
  };
  /// Flyweight injection hook for the open-loop load harness: send many
  /// datagrams at one instant, handing all frames with a resolved next
  /// hop to Fabric::send_batch (one delivery event per receiving NIC)
  /// instead of one fabric event each. Datagrams whose next hop is not
  /// yet in the ARP cache, loopback destinations, and unroutable
  /// destinations fall back to the exact per-datagram path send_udp()
  /// takes, so counters and ARP behavior are unchanged.
  void send_udp_burst(std::vector<UdpSend> batch);

  // ---- IP multicast ----
  /// Subscribe this interface to a 224.0.0.0/4 group (IGMP-less model:
  /// the switch fabric learns the filter directly).
  void join_multicast(int ifindex, Ipv4Address group);
  void leave_multicast(int ifindex, Ipv4Address group);
  [[nodiscard]] bool in_multicast_group(int ifindex, Ipv4Address group) const;
  /// Send a datagram to a multicast group via one interface.
  void send_udp_multicast(int ifindex, Ipv4Address group,
                          std::uint16_t dst_port, std::uint16_t src_port,
                          util::Bytes payload);

  // ---- Fault injection ----
  void set_interface_up(int ifindex, bool up);
  [[nodiscard]] bool interface_up(int ifindex) const;
  /// All interfaces down (host crash as seen from the network).
  void fail();
  void recover();
  [[nodiscard]] bool is_up() const;

  // ---- Forwarding (router role) ----
  void enable_forwarding(bool on) { forwarding_ = on; }
  [[nodiscard]] bool forwarding() const { return forwarding_; }
  void set_default_gateway(Ipv4Address gw) { default_gateway_ = gw; }
  /// Static route: destinations in `dst` go via `next_hop` (which must be on
  /// a directly attached network).
  void add_route(Ipv4Network dst, Ipv4Address next_hop);

  [[nodiscard]] const HostCounters& counters() const { return counters_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }

  /// Back this host's counters with registry cells; convention for
  /// `scope`: "net/s<N>".
  void bind_observability(obs::Observability& obs, std::string scope);

  // ARP resolution tuning (Linux-like defaults).
  sim::Duration arp_retry_interval = sim::seconds(1.0);
  int arp_max_retries = 3;
  std::size_t arp_queue_cap = 32;

 private:
  struct Interface {
    NicId nic = -1;
    SegmentId segment = 0;
    Ipv4Address primary;
    Ipv4Network net;
    std::set<Ipv4Address> aliases;
    std::set<Ipv4Address> multicast_groups;
  };
  struct PendingArp {
    int ifindex = 0;
    std::vector<Ipv4Packet> queue;
    int retries = 0;
    sim::TimerHandle timer;
  };

  void receive(const Frame& frame, NicId nic);
  void handle_arp(const Frame& frame, int ifindex);
  void handle_ipv4(const Frame& frame, int ifindex);
  void deliver_udp(const Ipv4Packet& pkt, int ifindex);
  void forward(Ipv4Packet pkt);
  /// Pick (ifindex, next_hop) for dst; ifindex -1 when unroutable.
  [[nodiscard]] std::pair<int, Ipv4Address> route(Ipv4Address dst) const;
  void transmit_ip(Ipv4Packet pkt, int ifindex, Ipv4Address next_hop);
  void send_arp_request(int ifindex, Ipv4Address target);
  void arp_retry(Ipv4Address next_hop);
  void flush_pending(Ipv4Address resolved_ip);
  const Interface& iface(int ifindex) const;
  Interface& iface(int ifindex);

  sim::Scheduler& sched_;
  Fabric& fabric_;
  std::string name_;
  sim::Logger log_;
  std::vector<Interface> ifaces_;
  ArpCache arp_;
  std::map<std::uint16_t, UdpHandler> sockets_;
  std::map<Ipv4Address, PendingArp> pending_arp_;
  bool forwarding_ = false;
  Ipv4Address default_gateway_;
  std::vector<std::pair<Ipv4Network, Ipv4Address>> static_routes_;
  HostCounters counters_;
};

}  // namespace wam::net
