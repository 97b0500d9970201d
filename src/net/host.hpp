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
//
// The paper enforces ownership one address at a time, so one takeover
// sends an ARP frame or more per address. begin_arp_burst() /
// end_arp_burst() let a caller (SimIpManager, for one daemon handler) send
// them as one burst per NIC: Fabric::send_batch, one delivery event per
// receiving NIC instead of one per frame. Frames, bytes and each NIC's
// transmit order are unchanged; only arrival times coarsen.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/address_index.hpp"
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

  /// Enumerate (name, field) pairs: the metric names under "net/s<N>".
  template <class Self, class Fn>
  static void for_each(Self& self, Fn&& fn) {
    fn("udp_sent", self.udp_sent);
    fn("udp_received", self.udp_received);
    fn("udp_no_socket", self.udp_no_socket);
    fn("ip_forwarded", self.ip_forwarded);
    fn("ip_no_route", self.ip_no_route);
    fn("ip_not_ours", self.ip_not_ours);
    fn("arp_requests_sent", self.arp_requests_sent);
    fn("arp_replies_sent", self.arp_replies_sent);
    fn("arp_resolution_failures", self.arp_resolution_failures);
    fn("decode_errors", self.decode_errors);
  }
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
  /// The aliases bound on `ifindex`, ascending.
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
  /// Open an ARP burst. Until the outermost end_arp_burst(), ARP frames
  /// this host sends are queued per interface; it then sends each
  /// interface's queue with Fabric::send_batch. A non-ARP frame leaving an
  /// interface flushes that queue first, so each NIC's transmit order, and
  /// with it its loss and jitter draw order, is exactly the unbatched one.
  /// Scopes nest; send_udp_burst() may not run inside one.
  void begin_arp_burst();
  void end_arp_burst();
  [[nodiscard]] ArpCache& arp_cache() { return arp_; }
  [[nodiscard]] const ArpCache& arp_cache() const { return arp_; }

  // ---- UDP sockets ----
  /// Returns false if the port is already bound.
  bool open_udp(std::uint16_t port, UdpHandler handler);
  void close_udp(std::uint16_t port);
  // Every UDP send copies `payload` once, into the frame's single block
  // (net::encode_udp_ipv4); the caller keeps its buffer.
  void send_udp(Ipv4Address dst, std::uint16_t dst_port,
                std::uint16_t src_port, const util::Bytes& payload);
  /// Respond "from" a specific local address (e.g. the VIP a request hit).
  void send_udp_from(Ipv4Address src_ip, Ipv4Address dst,
                     std::uint16_t dst_port, std::uint16_t src_port,
                     const util::Bytes& payload);
  /// Limited broadcast on one interface (255.255.255.255).
  void send_udp_broadcast(int ifindex, std::uint16_t dst_port,
                          std::uint16_t src_port, const util::Bytes& payload);

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
  void send_udp_burst(std::span<const UdpSend> batch);

  // ---- IP multicast ----
  /// Subscribe this interface to a 224.0.0.0/4 group (IGMP-less model:
  /// the switch fabric learns the filter directly).
  void join_multicast(int ifindex, Ipv4Address group);
  void leave_multicast(int ifindex, Ipv4Address group);
  [[nodiscard]] bool in_multicast_group(int ifindex, Ipv4Address group) const;
  /// Send a datagram to a multicast group via one interface.
  void send_udp_multicast(int ifindex, Ipv4Address group,
                          std::uint16_t dst_port, std::uint16_t src_port,
                          const util::Bytes& payload);

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
    std::set<Ipv4Address> multicast_groups;
  };
  struct PendingArp {
    int ifindex = 0;
    std::vector<util::SharedBytes> queue;  // encoded IPv4 packets
    int retries = 0;
    sim::TimerHandle timer;
  };

  void receive(const Frame& frame, NicId nic);
  void handle_arp(const Frame& frame, int ifindex);
  void handle_ipv4(const Frame& frame, int ifindex);
  void deliver_udp(const Ipv4Packet& pkt, int ifindex);
  /// Hand an encoded IPv4 packet to this host's own stack on the next
  /// scheduler round, like a kernel's loopback.
  void loop_back(util::SharedBytes packet, int ifindex);
  void forward(Ipv4Packet pkt);
  /// Pick (ifindex, next_hop) for dst; ifindex -1 when unroutable.
  [[nodiscard]] std::pair<int, Ipv4Address> route(Ipv4Address dst) const;
  /// Frame an encoded IPv4 packet to `next_hop`: the broadcast MAC for
  /// 255.255.255.255, otherwise the cached MAC, else queue it behind an
  /// ARP resolution.
  void transmit_ip(util::SharedBytes packet, int ifindex,
                   Ipv4Address next_hop);
  void send_arp_request(int ifindex, Ipv4Address target);
  /// Every frame this host sends leaves through here: straight to the
  /// fabric, or into the interface's queue while an ARP burst is open.
  void transmit(int ifindex, Frame frame);
  /// Send the interface's queued frames as one Fabric::send_batch.
  void flush_burst(int ifindex);
  void arp_retry(Ipv4Address next_hop);
  void flush_pending(Ipv4Address resolved_ip);
  const Interface& iface(int ifindex) const;
  Interface& iface(int ifindex);
  /// Whether `ifindex` holds `ip` as its primary address or an alias.
  [[nodiscard]] bool owns_on(int ifindex, Ipv4Address ip) const {
    return ((addresses_.find(ip).any() >> ifindex) & 1u) != 0;
  }

  sim::Scheduler& sched_;
  Fabric& fabric_;
  std::string name_;
  sim::Logger log_;
  std::vector<Interface> ifaces_;
  /// Every address every interface holds: one lookup answers owns_ip(),
  /// ifindex_of_ip() and the per-NIC duplicate-address probe.
  AddressIndex addresses_;
  ArpCache arp_;
  std::map<std::uint16_t, UdpHandler> sockets_;
  std::map<Ipv4Address, PendingArp> pending_arp_;
  bool forwarding_ = false;
  Ipv4Address default_gateway_;
  std::vector<std::pair<Ipv4Network, Ipv4Address>> static_routes_;
  HostCounters counters_;
  /// Per-interface frame lists of send_udp_burst and of an open ARP
  /// burst, kept between bursts so their capacity is reused.
  std::vector<std::vector<Frame>> burst_frames_;
  int arp_burst_depth_ = 0;
};

}  // namespace wam::net
