// Fabric::send_batch pins: same-seed batched injection must reproduce the
// unbatched path's per-host delivery order byte-for-byte, with identical
// counter accounting, while coalescing each receiver's frames into one
// delivery event at the latest computed arrival. The HostArpBurst tests pin
// the same contract for a host's ARP bursts (Host::begin_arp_burst).
#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/host.hpp"

namespace wam::net {
namespace {

// A small LAN that records, per NIC, the payload bytes in delivery order
// and the virtual delivery times.
struct Lan {
  sim::Scheduler sched;
  Fabric fabric;
  SegmentId seg;
  std::vector<NicId> nics;
  std::vector<std::vector<std::string>> inbox;
  std::vector<std::vector<sim::TimePoint>> times;

  explicit Lan(std::uint64_t seed, Fabric::SegmentConfig config)
      : fabric(sched, nullptr, seed), seg(fabric.add_segment(config)) {}

  NicId attach() {
    auto idx = inbox.size();
    inbox.emplace_back();
    times.emplace_back();
    NicId id = fabric.attach(seg, fabric.allocate_mac(),
                             [this, idx](const Frame& f, NicId) {
                               inbox[idx].emplace_back(f.payload.begin(),
                                                       f.payload.end());
                               times[idx].push_back(sched.now());
                             });
    nics.push_back(id);
    return id;
  }

  Frame frame(NicId from, MacAddress dst, std::uint8_t tag) {
    return Frame{fabric.mac_of(from), dst, EtherType::kIpv4, {tag}};
  }
};

// The workload both runs share: unicasts to every peer (some down, some
// partitioned away, one direction-blocked), plus broadcasts, interleaved.
std::vector<Frame> make_workload(Lan& lan, int count) {
  std::vector<Frame> frames;
  for (int i = 0; i < count; ++i) {
    auto tag = static_cast<std::uint8_t>(i);
    NicId to = lan.nics[1 + static_cast<std::size_t>(i) % 4];
    frames.push_back(lan.frame(lan.nics[0], lan.fabric.mac_of(to), tag));
    if (i % 5 == 0) {
      frames.push_back(
          lan.frame(lan.nics[0], MacAddress::broadcast(), tag));
    }
  }
  return frames;
}

void apply_faults(Lan& lan) {
  lan.fabric.set_nic_up(lan.nics[2], false);
  lan.fabric.set_partition(lan.seg, {{lan.nics[0], lan.nics[1], lan.nics[2],
                                      lan.nics[3]},
                                     {lan.nics[4]}});
  lan.fabric.block_direction(lan.nics[0], lan.nics[3]);
}

struct RunResult {
  std::vector<std::vector<std::string>> inbox;
  std::vector<std::vector<sim::TimePoint>> times;
  std::uint64_t sent, delivered, no_target, partition, nic_down, random,
      directional;
};

RunResult run(std::uint64_t seed, bool batched, double drop, int count) {
  Fabric::SegmentConfig config;
  config.jitter = sim::microseconds(30);
  config.drop_probability = drop;
  Lan lan(seed, config);
  for (int i = 0; i < 5; ++i) lan.attach();
  apply_faults(lan);
  auto frames = make_workload(lan, count);
  if (batched) {
    lan.fabric.send_batch(lan.nics[0], std::move(frames));
  } else {
    for (auto& f : frames) lan.fabric.send(lan.nics[0], std::move(f));
  }
  lan.sched.run_all();
  const auto& c = lan.fabric.counters();
  return {lan.inbox,
          lan.times,
          c.frames_sent,
          c.frames_delivered,
          c.dropped_no_target,
          c.dropped_partition,
          c.dropped_nic_down,
          c.dropped_random,
          c.dropped_directional};
}

void expect_equivalent(const RunResult& plain, const RunResult& batch) {
  ASSERT_EQ(plain.inbox.size(), batch.inbox.size());
  for (std::size_t i = 0; i < plain.inbox.size(); ++i) {
    EXPECT_EQ(plain.inbox[i], batch.inbox[i]) << "nic " << i;
  }
  EXPECT_EQ(plain.sent, batch.sent);
  EXPECT_EQ(plain.delivered, batch.delivered);
  EXPECT_EQ(plain.no_target, batch.no_target);
  EXPECT_EQ(plain.partition, batch.partition);
  EXPECT_EQ(plain.nic_down, batch.nic_down);
  EXPECT_EQ(plain.random, batch.random);
  EXPECT_EQ(plain.directional, batch.directional);
}

TEST(FabricBatch, SameSeedDeliveryOrderMatchesUnbatched) {
  auto plain = run(42, false, 0.0, 40);
  auto batch = run(42, true, 0.0, 40);
  ASSERT_GT(plain.delivered, 0u);
  expect_equivalent(plain, batch);
}

TEST(FabricBatch, LossyRunDrawsIdenticalDropAndJitterSequence) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    auto plain = run(seed, false, 0.3, 60);
    auto batch = run(seed, true, 0.3, 60);
    ASSERT_GT(plain.random, 0u) << "seed " << seed;
    expect_equivalent(plain, batch);
  }
}

TEST(FabricBatch, ReceiverGetsOneEventAtLatestArrival) {
  // One receiver, jittered segment: unbatched deliveries spread out;
  // batched ones all land together at the latest unbatched arrival.
  auto one_receiver = [](bool batched) {
    Fabric::SegmentConfig config;
    config.jitter = sim::microseconds(200);
    Lan lan(5, config);
    for (int i = 0; i < 2; ++i) lan.attach();
    std::vector<Frame> frames;
    for (int i = 0; i < 8; ++i) {
      frames.push_back(lan.frame(lan.nics[0], lan.fabric.mac_of(lan.nics[1]),
                                 static_cast<std::uint8_t>(i)));
    }
    if (batched) {
      lan.fabric.send_batch(lan.nics[0], std::move(frames));
    } else {
      for (auto& f : frames) lan.fabric.send(lan.nics[0], std::move(f));
    }
    lan.sched.run_all();
    return lan.times[1];
  };
  auto plain_times = one_receiver(false);
  auto batch_times = one_receiver(true);
  ASSERT_EQ(plain_times.size(), 8u);
  ASSERT_EQ(batch_times.size(), 8u);
  sim::TimePoint latest = plain_times[0];
  for (auto t : plain_times) latest = std::max(latest, t);
  EXPECT_GT(latest, plain_times[0]) << "jitter should spread arrivals";
  for (auto t : batch_times) EXPECT_EQ(t, latest);
}

TEST(FabricBatch, EmptyBatchIsNoOp) {
  Lan lan(1, Fabric::SegmentConfig{});
  lan.attach();
  lan.fabric.send_batch(lan.nics[0], {});
  lan.sched.run_all();
  EXPECT_EQ(lan.fabric.counters().frames_sent, 0u);
}

TEST(FabricBatch, ReceiverDownAtDeliveryTimeDropsLate) {
  // The up-check at delivery time must re-run per frame, like send().
  Lan lan(1, Fabric::SegmentConfig{});
  lan.attach();
  lan.attach();
  std::vector<Frame> frames;
  frames.push_back(lan.frame(lan.nics[0], lan.fabric.mac_of(lan.nics[1]), 1));
  lan.fabric.send_batch(lan.nics[0], std::move(frames));
  lan.fabric.set_nic_up(lan.nics[1], false);  // down before delivery fires
  lan.sched.run_all();
  EXPECT_TRUE(lan.inbox[1].empty());
  EXPECT_EQ(lan.fabric.counters().frames_delivered, 0u);
}

// A sending Host and two bare receiver NICs on one jittered segment. Each
// receiver records the payload bytes and the arrival time of every frame,
// in delivery order, and a tap records the sender's transmit order (the
// order its loss and jitter draws are made in). The receivers never
// answer, so the sender's frames are the only traffic.
struct BurstLan {
  Lan lan;
  Host host;
  std::vector<std::string> sent;
  static constexpr int kReceivers = 2;

  explicit BurstLan(std::uint64_t seed, double drop = 0.0)
      : lan(seed, config(drop)), host(lan.sched, lan.fabric, "sender") {
    lan.fabric.set_tap([this](SegmentId, const Frame& f) {
      sent.emplace_back(f.payload.begin(), f.payload.end());
    });
    host.add_interface(lan.seg, sender_ip(), 24);
    for (int i = 0; i < kReceivers; ++i) lan.attach();
    // The spoof target's MAC is known, so a spoofed reply goes out at once.
    host.arp_cache().put(target_ip(), lan.fabric.mac_of(lan.nics[0]),
                         lan.sched.now());
  }
  static Fabric::SegmentConfig config(double drop) {
    Fabric::SegmentConfig c;
    c.jitter = sim::microseconds(30);
    c.drop_probability = drop;
    return c;
  }
  static Ipv4Address sender_ip() { return Ipv4Address(10, 0, 0, 1); }
  static Ipv4Address target_ip() { return Ipv4Address(10, 0, 0, 254); }
  static Ipv4Address vip(int k) {
    return Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(100 + k));
  }
  // One takeover's frames for `groups` addresses: a gratuitous ARP and a
  // spoofed reply at the target for each.
  void announce(int groups) {
    for (int k = 0; k < groups; ++k) {
      host.add_alias(0, vip(k));
      host.send_gratuitous_arp(0, vip(k));
      host.send_spoofed_reply(0, vip(k), target_ip());
    }
  }
  std::uint64_t run() {
    const auto before = lan.sched.executed_events();
    lan.sched.run_all();
    return lan.sched.executed_events() - before;
  }
};

TEST(HostArpBurst, OneEventPerReceivingNic) {
  BurstLan plain(3);
  plain.announce(16);
  EXPECT_EQ(plain.run(), 16u * 2 + 16u);  // broadcasts to both, spoofs to one

  BurstLan burst(3);
  burst.host.begin_arp_burst();
  burst.announce(16);
  burst.host.end_arp_burst();
  EXPECT_EQ(burst.run(), static_cast<std::uint64_t>(BurstLan::kReceivers));
  EXPECT_EQ(burst.lan.inbox[0].size(), 32u);
  EXPECT_EQ(burst.lan.inbox[1].size(), 16u);
  for (const auto& times : burst.lan.times) {
    for (auto t : times) EXPECT_EQ(t, times.back()) << "one delivery event";
  }
}

TEST(HostArpBurst, SameBytesAndPerNicOrderAsUnbatched) {
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    BurstLan plain(seed, 0.3);
    plain.announce(40);
    plain.run();
    BurstLan burst(seed, 0.3);
    burst.host.begin_arp_burst();
    burst.announce(40);
    burst.host.end_arp_burst();
    burst.run();
    ASSERT_GT(plain.lan.fabric.counters().dropped_random, 0u);
    EXPECT_EQ(plain.sent, burst.sent) << "seed " << seed;
    for (int i = 0; i < BurstLan::kReceivers; ++i) {
      const auto n = static_cast<std::size_t>(i);
      EXPECT_EQ(plain.lan.inbox[n], burst.lan.inbox[n])
          << "seed " << seed << " receiver " << i;
      // Never earlier than unbatched, at most one jitter span later.
      ASSERT_EQ(plain.lan.times[n].size(), burst.lan.times[n].size());
      for (std::size_t f = 0; f < plain.lan.times[n].size(); ++f) {
        EXPECT_GE(burst.lan.times[n][f], plain.lan.times[n][f]);
        EXPECT_LE(burst.lan.times[n][f] - plain.lan.times[n][f],
                  sim::microseconds(30));
      }
    }
    EXPECT_EQ(plain.lan.fabric.counters().frames_sent,
              burst.lan.fabric.counters().frames_sent);
    EXPECT_EQ(plain.lan.fabric.counters().frames_delivered,
              burst.lan.fabric.counters().frames_delivered);
    EXPECT_EQ(plain.host.counters().arp_replies_sent,
              burst.host.counters().arp_replies_sent);
  }
}

TEST(HostArpBurst, NonArpFrameMidBurstFlushesTheQueueFirst) {
  auto send = [](BurstLan& b, bool scoped) {
    if (scoped) b.host.begin_arp_burst();
    for (int k = 0; k < 3; ++k) b.host.send_gratuitous_arp(0, BurstLan::vip(k));
    b.host.send_udp_broadcast(0, 9000, 9000, util::Bytes{42});
    for (int k = 3; k < 6; ++k) b.host.send_gratuitous_arp(0, BurstLan::vip(k));
    if (scoped) b.host.end_arp_burst();
    return b.run();
  };
  BurstLan plain(5);
  EXPECT_EQ(send(plain, false), 7u * BurstLan::kReceivers);
  BurstLan burst(5);
  // Per receiver: the three ARPs before the datagram, the datagram, and
  // the three after it.
  EXPECT_EQ(send(burst, true), 3u * BurstLan::kReceivers);
  // The first three ARPs left before the datagram: the transmit order,
  // and with it every loss and jitter draw, is the unbatched one.
  ASSERT_EQ(burst.sent.size(), 7u);
  EXPECT_EQ(plain.sent, burst.sent);
  for (int i = 0; i < BurstLan::kReceivers; ++i) {
    auto got = burst.lan.inbox[static_cast<std::size_t>(i)];
    auto want = plain.lan.inbox[static_cast<std::size_t>(i)];
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "receiver " << i;
  }
}

TEST(HostArpBurst, NestedScopesFlushOnceAtTheOutermostEnd) {
  BurstLan b(9);
  b.host.begin_arp_burst();
  b.host.begin_arp_burst();
  for (int k = 0; k < 4; ++k) b.host.send_gratuitous_arp(0, BurstLan::vip(k));
  b.host.end_arp_burst();
  EXPECT_EQ(b.lan.fabric.counters().frames_sent, 0u) << "inner end flushed";
  for (int k = 4; k < 8; ++k) b.host.send_gratuitous_arp(0, BurstLan::vip(k));
  b.host.end_arp_burst();
  EXPECT_EQ(b.lan.fabric.counters().frames_sent, 8u);
  EXPECT_EQ(b.run(), static_cast<std::uint64_t>(BurstLan::kReceivers));
  EXPECT_EQ(b.lan.inbox[0].size(), 8u);
}

TEST(HostArpBurst, WithNoScopeOpenFramesGoStraightOut) {
  BurstLan b(11);
  b.host.send_gratuitous_arp(0, BurstLan::vip(0));
  EXPECT_EQ(b.lan.fabric.counters().frames_sent, 1u);
  b.host.send_gratuitous_arp(0, BurstLan::vip(1));
  EXPECT_EQ(b.lan.fabric.counters().frames_sent, 2u);
  EXPECT_EQ(b.run(), 2u * BurstLan::kReceivers);
}

}  // namespace
}  // namespace wam::net
