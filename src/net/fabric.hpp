// The switched-LAN fabric: segments, NIC attachment, partitions, delivery.
//
// A Fabric owns zero or more segments (broadcast domains). Hosts attach
// NICs to segments; frames sent from a NIC are delivered — after a
// configurable latency and optional loss — to the NIC owning the
// destination MAC (unicast) or to every NIC (broadcast) *within the same
// partition component* of that segment.
//
// Partitions are the paper's fault model: set_partition() splits a
// segment's NICs into disjoint components that cannot exchange frames;
// merge_segment() heals it. NICs can also be taken down individually,
// which models the paper's experiment fault ("disconnecting the interface
// through which Spread, Wackamole and the experimental server access the
// network").
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "obs/observability.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace wam::sim {
class ShardSet;
}

namespace wam::net {

using SegmentId = int;
using NicId = int;

/// Fabric statistics; a thin view over registry cells once the fabric is
/// bound to an obs::Observability (see obs/metrics.hpp).
struct FabricCounters {
  obs::Counter frames_sent;
  obs::Counter frames_delivered;
  obs::Counter dropped_no_target;    // unicast MAC not present/up
  obs::Counter dropped_partition;    // target in another component
  obs::Counter dropped_nic_down;     // sender or receiver NIC down
  obs::Counter dropped_random;       // loss model
  obs::Counter dropped_directional;  // one-way link faults

  /// Enumerate (name, field) pairs: the metric names under "net".
  template <class Self, class Fn>
  static void for_each(Self& self, Fn&& fn) {
    fn("frames_sent", self.frames_sent);
    fn("frames_delivered", self.frames_delivered);
    fn("dropped_no_target", self.dropped_no_target);
    fn("dropped_partition", self.dropped_partition);
    fn("dropped_nic_down", self.dropped_nic_down);
    fn("dropped_random", self.dropped_random);
    fn("dropped_directional", self.dropped_directional);
  }
};

class Fabric {
 public:
  /// Delivery callback: (frame, receiving nic).
  using DeliverFn = std::function<void(const Frame&, NicId)>;
  /// Address-ownership predicate, answered synchronously on behalf of a
  /// NIC's host when a peer ARP-probes an address (duplicate-address
  /// detection).
  using AddressProbeFn = std::function<bool(Ipv4Address)>;
  /// Optional tap observing every frame accepted for transmission.
  using TapFn = std::function<void(SegmentId, const Frame&)>;

  struct SegmentConfig {
    sim::Duration latency = sim::microseconds(50);
    sim::Duration jitter = sim::microseconds(10);  // uniform [0, jitter]
    double drop_probability = 0.0;
    std::string name = "lan";
  };

  Fabric(sim::Scheduler& sched, sim::Log* log = nullptr,
         std::uint64_t seed = 1);

  SegmentId add_segment(SegmentConfig config);
  SegmentId add_segment();  // default-configured segment
  /// Fabric-unique locally-administered MAC (deterministic per fabric).
  MacAddress allocate_mac() { return MacAddress::from_index(next_mac_++); }
  [[nodiscard]] int segment_count() const {
    return static_cast<int>(segments_.size());
  }
  SegmentConfig& segment_config(SegmentId seg);

  /// Attach a NIC with the given MAC; frames for it go to `deliver`.
  NicId attach(SegmentId seg, MacAddress mac, DeliverFn deliver);
  /// Register the NIC's answer to ARP probes (see address_in_use()).
  void set_address_probe(NicId nic, AddressProbeFn probe);
  void set_nic_up(NicId nic, bool up);
  /// Multicast filters: a NIC also receives frames addressed to these MACs.
  void add_mac_filter(NicId nic, MacAddress mac);
  void remove_mac_filter(NicId nic, MacAddress mac);
  [[nodiscard]] bool nic_up(NicId nic) const;
  [[nodiscard]] SegmentId segment_of(NicId nic) const;
  [[nodiscard]] MacAddress mac_of(NicId nic) const;

  /// Split a segment into components; every NIC of the segment must appear
  /// in exactly one group. Frames no longer cross groups.
  void set_partition(SegmentId seg, const std::vector<std::vector<NicId>>& groups);
  /// Heal all partitions on the segment.
  void merge_segment(SegmentId seg);
  [[nodiscard]] int component_of(NicId nic) const;

  /// Asymmetric fault: frames from `from` to `to` are dropped while the
  /// reverse direction keeps working — the pathological case §2 of the
  /// paper warns about ("additional connectivity beyond that reported by
  /// the group communication system"). Applies to unicast, broadcast and
  /// multicast deliveries alike.
  void block_direction(NicId from, NicId to);
  void unblock_direction(NicId from, NicId to);
  void clear_directional_blocks();
  [[nodiscard]] std::size_t directional_block_count() const {
    return blocked_.size();
  }

  /// Loss burst: set the segment's random-drop probability (0 heals). A
  /// convenience over segment_config() that also publishes the fault /
  /// heal event, so chaos timelines record when the burst started and
  /// ended.
  void set_drop_probability(SegmentId seg, double p);

  /// Transmit a frame from `from`. Fire-and-forget (UDP-like) semantics.
  void send(NicId from, Frame frame);

  /// Transmit many frames from `from` at the current instant, scheduling
  /// ONE delivery event per receiving NIC instead of one per frame — the
  /// hook the open-loop load harness injects client storms through
  /// (see src/load). Semantics match calling send() once per frame in
  /// order: the same counters, the same loss/partition/NIC checks, and —
  /// pinned by tests/net_fabric_batch_test.cpp — the identical RNG draw
  /// sequence, so a same-seed batched run delivers frames to each host in
  /// byte-identical order to the unbatched path. Only the timestamps
  /// coarsen: a receiver's whole batch lands at the LATEST of its frames'
  /// computed arrival times (never earlier than unbatched, and at most
  /// one jitter span later). The frames are moved out of `frames`; the
  /// vector itself, and its capacity, stay with the caller.
  void send_batch(NicId from, std::vector<Frame>&& frames);

  /// ARP probe: would anyone else answer a who-has for `ip` sent from
  /// `asking`? Honours the same reachability rules as delivery — the
  /// answering NIC must share the asker's segment and partition component,
  /// both NICs must be up and neither direction blocked — so a holder the
  /// asker genuinely cannot hear never counts as a duplicate.
  [[nodiscard]] bool address_in_use(NicId asking, Ipv4Address ip) const;

  [[nodiscard]] const FabricCounters& counters() const {
    fold_shard_counters();
    return counters_;
  }
  void set_tap(TapFn tap) {
    WAM_EXPECTS(shards_ == nullptr);  // taps would race shard threads
    tap_ = std::move(tap);
  }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  // ---- sharded engine hookup (conservative PDES, sim/shard.hpp) ----
  /// Route deliveries through a ShardSet: every NIC is placed on a shard
  /// (assign_shard, default 0), and arrivals whose sender and receiver
  /// live on different shards cross at the barrier via ShardSet::post.
  /// Loss/jitter draws come from the sender NIC's own RNG stream whether
  /// or not the fabric is sharded, so they depend only on the sender's
  /// transmit order, never on shard count. Requirements: call before
  /// traffic flows, every segment's base latency >= the shard lookahead
  /// (the conservative guarantee), and no tap installed. The unsharded
  /// fabric is the oracle the equivalence tests compare against.
  void set_sharding(sim::ShardSet& shards);
  [[nodiscard]] bool sharded() const { return shards_ != nullptr; }
  /// Place a NIC on a shard. Quiesced-only (between run_until calls).
  void assign_shard(NicId nic, int shard);
  [[nodiscard]] int shard_of(NicId nic) const;
  /// Merge per-shard counter deltas into the bound counters_ view (and
  /// thus the metric registry). Quiesced-only; counters() calls it, and
  /// sharded scenarios call it after each advance so registry queries see
  /// fresh values.
  void fold_shard_counters() const;

  /// Per-NIC delivery journal for the sequential-vs-sharded equivalence
  /// tests: every frame actually handed to a NIC, with its arrival time
  /// and a payload digest. Off by default (costs a hash per delivery).
  struct DeliveryRecord {
    sim::TimePoint when{};
    std::uint64_t digest = 0;
  };
  void set_record_deliveries(bool on) { record_deliveries_ = on; }
  [[nodiscard]] const std::vector<DeliveryRecord>& deliveries(NicId nic) const;

  /// Route frame metrics and partition fault events through a shared
  /// observability context; convention for `scope`: "net".
  void bind_observability(obs::Observability& obs, std::string scope);

 private:
  struct Nic {
    SegmentId segment = 0;
    MacAddress mac;
    bool up = true;
    int component = 0;
    DeliverFn deliver;
    std::set<MacAddress> filters;  // multicast subscriptions
    AddressProbeFn probe;          // duplicate-address detection answer
  };
  struct Segment {
    SegmentConfig config;
    std::vector<NicId> nics;
  };

  const Nic& nic(NicId id) const;
  Nic& nic(NicId id);
  /// One frame onto the sender's segment: count it, tap it, draw its
  /// loss, then call `to(segment, receiver)` for each NIC that should get
  /// it. A receiver that is down, partitioned away or blocked is counted
  /// as a drop instead. send() and send_batch() both route through here,
  /// so they bump the same counters and draw the RNG in the same order.
  template <class Fn>
  void route(NicId from, const Frame& frame, FabricCounters& c, Fn&& to);
  /// When a frame `from` sends now arrives: latency plus a jitter draw.
  [[nodiscard]] sim::TimePoint arrival(const Segment& seg, NicId from);
  /// Hand `frame` to `to` right now (the body of every delivery event):
  /// re-checks liveness, bumps the receiver-side counters, journals.
  void deliver_now(NicId to, Frame frame);
  /// Schedule `fn` at `when` on the receiver's shard: directly when sender
  /// and receiver share a shard (or sharding is off), via the barrier
  /// otherwise.
  void schedule_delivery(NicId from, NicId to, sim::TimePoint when,
                         util::SmallFn fn);
  /// The scheduler a NIC's events run on (its shard's, or sched_).
  [[nodiscard]] sim::Scheduler& sched_of(NicId id);
  /// Sender-side RNG: the sending NIC's own stream, Rng(seed).stream(1+nic).
  [[nodiscard]] sim::Rng& tx_rng(NicId sender);
  /// Counter sink for work done on a NIC's shard thread.
  [[nodiscard]] FabricCounters& ctrs(NicId id);

  sim::Scheduler& sched_;
  sim::Logger log_;
  std::uint64_t seed_;
  std::vector<Segment> segments_;
  std::vector<Nic> nics_;
  mutable FabricCounters counters_;
  TapFn tap_;
  std::uint16_t next_mac_ = 1;
  std::set<std::pair<NicId, NicId>> blocked_;  // (from, to) one-way faults
  obs::Observability* obs_ = nullptr;
  std::string_view obs_scope_;  // interned in *obs_

  sim::ShardSet* shards_ = nullptr;
  std::vector<int> nic_shard_;      // shard of each NIC (sharded mode)
  std::vector<sim::Rng> nic_rng_;   // per-NIC sender-side streams (always)
  /// Written by each shard's own thread during a window (obs::Counter is
  /// not atomic, so the shared counters_ view cannot be touched there);
  /// folded into counters_ at quiesce points.
  mutable std::vector<FabricCounters> shard_counters_;
  bool record_deliveries_ = false;
  std::vector<std::vector<DeliveryRecord>> journal_;  // per NIC
};

}  // namespace wam::net
