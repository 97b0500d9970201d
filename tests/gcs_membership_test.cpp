#include <gtest/gtest.h>

#include <numeric>

#include "gcs/message.hpp"
#include "gcs_fixture.hpp"
#include "net/frame.hpp"

namespace wam::testing {
namespace {

using gcs::Config;

TEST(GcsMembership, SingletonInstallsAlone) {
  GcsCluster c(1);
  c.start_all();
  c.run(sim::seconds(5.0));
  EXPECT_TRUE(c.daemons[0]->in_op());
  EXPECT_EQ(c.daemons[0]->view().members.size(), 1u);
}

TEST(GcsMembership, ClusterConvergesToOneView) {
  GcsCluster c(5);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2, 3, 4}}, "initial");
  // All members share the identical view id.
  auto id = c.daemons[0]->view().id;
  for (auto& d : c.daemons) EXPECT_EQ(d->view().id, id);
}

TEST(GcsMembership, MemberListIsSortedAndIdentical) {
  GcsCluster c(4);
  c.start_all();
  c.run(sim::seconds(5.0));
  auto members = c.daemons[0]->view().members;
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  for (auto& d : c.daemons) EXPECT_EQ(d->view().members, members);
}

TEST(GcsMembership, StaggeredStartStillConverges) {
  GcsCluster c(3);
  c.daemons[0]->start();
  c.run(sim::seconds(3.0));
  c.daemons[1]->start();
  c.run(sim::seconds(3.0));
  c.daemons[2]->start();
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2}}, "staggered");
}

TEST(GcsMembership, NicDownRemovesMember) {
  GcsCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.hosts[2]->set_interface_up(0, false);
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1}}, "after fault");
  // The isolated daemon converges to a singleton view.
  c.expect_views({{2}}, "isolated");
}

TEST(GcsMembership, RecoveryRemerges) {
  GcsCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.hosts[2]->set_interface_up(0, false);
  c.run(sim::seconds(5.0));
  c.hosts[2]->set_interface_up(0, true);
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2}}, "after recovery");
}

TEST(GcsMembership, PartitionSplitsViews) {
  GcsCluster c(5);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.partition({{0, 1}, {2, 3, 4}});
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1}, {2, 3, 4}}, "partitioned");
}

TEST(GcsMembership, MergeReunifies) {
  GcsCluster c(5);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.partition({{0, 1}, {2, 3, 4}});
  c.run(sim::seconds(5.0));
  c.merge();
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2, 3, 4}}, "merged");
}

TEST(GcsMembership, CascadingPartitions) {
  GcsCluster c(6);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.partition({{0, 1, 2}, {3, 4, 5}});
  // Interrupt the first reconfiguration mid-flight with a further split.
  c.run(sim::milliseconds(700));
  c.partition({{0, 1}, {2}, {3, 4, 5}});
  c.run(sim::seconds(6.0));
  c.expect_views({{0, 1}, {2}, {3, 4, 5}}, "cascading");
}

TEST(GcsMembership, DaemonStopIsDetected) {
  GcsCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.daemons[0]->stop();
  c.run(sim::seconds(5.0));
  c.expect_views({{1, 2}}, "after stop");
}

TEST(GcsMembership, DaemonRestartRejoins) {
  GcsCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.daemons[0]->stop();
  c.run(sim::seconds(5.0));
  c.daemons[0]->start();
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2}}, "after restart");
}

// Failure-notification latency must fall within
// [fault_detection - heartbeat, fault_detection] + discovery + install;
// with the default config that is the paper's 10-12 s window.
TEST(GcsMembership, DefaultConfigDetectionLatencyInPaperRange) {
  GcsCluster c(4, Config::spread_default());
  c.start_all();
  c.run(sim::seconds(30.0));
  ASSERT_TRUE(c.daemons[0]->in_op());
  auto fault_time = c.sched.now();
  c.hosts[3]->set_interface_up(0, false);

  // Find when daemon 0 installs the 3-member view.
  while (c.sched.now() - fault_time < sim::seconds(20.0)) {
    c.run(sim::milliseconds(50));
    if (c.daemons[0]->in_op() && c.daemons[0]->view().members.size() == 3) {
      break;
    }
  }
  auto latency = c.sched.now() - fault_time;
  EXPECT_GE(sim::to_seconds(latency), 9.9);
  EXPECT_LE(sim::to_seconds(latency), 12.5);
}

TEST(GcsMembership, TunedConfigDetectionLatencyInPaperRange) {
  GcsCluster c(4, Config::spread_tuned());
  c.start_all();
  c.run(sim::seconds(10.0));
  ASSERT_TRUE(c.daemons[0]->in_op());
  auto fault_time = c.sched.now();
  c.hosts[3]->set_interface_up(0, false);
  while (c.sched.now() - fault_time < sim::seconds(5.0)) {
    c.run(sim::milliseconds(10));
    if (c.daemons[0]->in_op() && c.daemons[0]->view().members.size() == 3) {
      break;
    }
  }
  auto latency = c.sched.now() - fault_time;
  EXPECT_GE(sim::to_seconds(latency), 1.9);
  EXPECT_LE(sim::to_seconds(latency), 2.6);
}

TEST(GcsMembership, TwelveNodeClusterConverges) {
  GcsCluster c(12);
  c.start_all();
  c.run(sim::seconds(10.0));
  std::vector<std::vector<int>> all = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}};
  c.expect_views(all, "12-node");
}

TEST(GcsMembership, ViewEpochIncreasesAcrossChanges) {
  GcsCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  auto e1 = c.daemons[0]->view().id.epoch;
  c.hosts[2]->set_interface_up(0, false);
  c.run(sim::seconds(5.0));
  auto e2 = c.daemons[0]->view().id.epoch;
  EXPECT_GT(e2, e1);
}

std::vector<int> first_n(int n) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

/// Counts the DISCOVERY frames the fabric accepts for transmission: all of
/// them, and those sent by `watched`.
struct DiscoveryTap {
  std::uint64_t frames = 0;
  net::Ipv4Address watched;
  std::uint64_t watched_frames = 0;

  explicit DiscoveryTap(GcsCluster& c) {
    const std::uint16_t port = Config::spread_tuned().port;
    c.fabric.set_tap([this, port](net::SegmentId, const net::Frame& frame) {
      if (frame.type != net::EtherType::kIpv4) return;
      auto pkt = net::Ipv4Packet::decode(frame.payload);
      if (pkt.protocol != net::kProtoUdp) return;
      auto udp = net::UdpDatagram::decode(pkt.payload);
      if (udp.dst_port == port && udp.payload.size() > 0 &&
          udp.payload[0] ==
              static_cast<std::uint8_t>(gcs::MsgType::kDiscovery)) {
        ++frames;
        if (pkt.src == watched) ++watched_frames;
      }
    });
  }
};

// A membership change floods DISCOVERY in O(N) broadcasts. Each daemon
// announces itself, rebroadcasts once a quiet interval after the first
// message that taught it something, and twice more on its rebroadcast
// timer: 4(N - 1) frames on a fault, 4N on a rejoin. Rebroadcasting at
// once on every such message cost about N^2 (1,023 frames on a fault at
// N = 32); replying to every flood message, about 15.6 N^2.
TEST(GcsMembership, DiscoveryFloodCostIsLinear) {
  for (int n : {8, 16, 32, 64}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    GcsCluster c(n);
    DiscoveryTap tap(c);
    const auto bound = static_cast<std::uint64_t>(4 * n);
    c.start_all();
    c.run(sim::seconds(5.0));
    c.expect_views({first_n(n)}, "converged");

    tap.frames = 0;
    c.hosts[static_cast<std::size_t>(n - 1)]->set_interface_up(0, false);
    c.run(sim::seconds(5.0));
    c.expect_views({first_n(n - 1)}, "after fault");
    EXPECT_LE(tap.frames, bound) << "fault";

    tap.frames = 0;
    c.hosts[static_cast<std::size_t>(n - 1)]->set_interface_up(0, true);
    c.run(sim::seconds(5.0));
    c.expect_views({first_n(n)}, "after rejoin");
    EXPECT_LE(tap.frames, bound) << "rejoin";
  }
}

// Daemon 0 joins a round that daemon 1 starts and arms its coalescing
// timer. Before the timer fires, a PROPOSE that excludes daemon 0 makes it
// abandon the round and enter a new one. Nothing reaches daemon 0 in the
// new round, so it learns nothing there: it must send its one announcement
// and nothing more before its rebroadcast timer, a heartbeat_timeout
// (400 ms) later. A timer left over from the abandoned round would
// rebroadcast within kDiscoveryQuiet.
TEST(GcsMembership, CoalescingTimerOfAnAbandonedRoundSendsNothing) {
  GcsCluster c(2);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.expect_views({first_n(2)}, "converged");
  DiscoveryTap tap(c);
  tap.watched = c.daemons[0]->id();

  // A bystander on the segment to send the PROPOSE from. A datagram to a
  // closed port resolves its ARP entry now, so the PROPOSE later goes out
  // at once.
  net::Host other(c.sched, c.fabric, "x", &c.log);
  other.add_interface(c.seg, net::Ipv4Address(10, 0, 0, 99), 24);
  other.send_udp(c.daemons[0]->id(), 9, 9, util::Bytes{0});
  c.run(sim::milliseconds(10));

  ASSERT_TRUE(c.daemons[1]->force_rediscovery("test"));
  c.run(sim::microseconds(100));  // daemon 1's announcement has landed
  ASSERT_FALSE(c.daemons[0]->in_op());
  EXPECT_EQ(tap.watched_frames, 1u);  // daemon 0's own announcement
  c.fabric.block_direction(c.hosts[1]->nic_id(0), c.hosts[0]->nic_id(0));

  const std::uint16_t port = Config::spread_tuned().port;
  gcs::Propose p{gcs::ViewId{1000, other.primary_ip()}, {other.primary_ip()}};
  other.send_udp(c.daemons[0]->id(), port, port, gcs::encode(p));
  c.run(sim::microseconds(70));  // the PROPOSE has landed
  EXPECT_EQ(tap.watched_frames, 2u);  // the new round's announcement

  c.run(sim::milliseconds(100));  // far past kDiscoveryQuiet
  EXPECT_EQ(tap.watched_frames, 2u);

  c.fabric.unblock_direction(c.hosts[1]->nic_id(0), c.hosts[0]->nic_id(0));
  c.run(sim::seconds(5.0));
  c.expect_views({first_n(2)}, "after the abandoned round");
}

// The wire is not trusted: a DISCOVERY whose list is neither ascending nor
// free of duplicates is learned one id at a time, so every view's member
// list stays sorted and unique. A one-pass merge that assumed the order
// would insert the duplicates.
TEST(GcsMembership, UnsortedDiscoveryListIsLearnedOneIdAtATime) {
  GcsCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.expect_views({first_n(3)}, "converged");
  const auto epoch = c.daemons[0]->view().id.epoch;

  const auto d0 = c.daemons[0]->id();
  const auto d1 = c.daemons[1]->id();
  const auto d2 = c.daemons[2]->id();
  const std::uint16_t port = Config::spread_tuned().port;
  gcs::Discovery d{d2, epoch + 1, {d2, d0, d2, d1}};
  c.hosts[2]->send_udp_broadcast(0, port, port, gcs::encode(d));
  c.run(sim::seconds(5.0));
  c.expect_views({first_n(3)}, "after the unsorted list");
  EXPECT_GT(c.daemons[0]->view().id.epoch, epoch);
}

// For the first 100 ms of a discovery round, frames from daemon 0 to the
// initiator (daemon 1) are dropped, so none of daemon 0's immediate
// DISCOVERY broadcasts reach it. The initiator must still end up in a
// view with daemon 0, learning of it through the third daemon's relay
// (n = 3) or daemon 0's timer rebroadcast (n = 2).
TEST(GcsMembership, OneWayBlockEarlyInDiscoveryStillMerges) {
  for (int n : {2, 3}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    GcsCluster c(n);
    c.start_all();
    c.run(sim::seconds(5.0));
    c.expect_views({first_n(n)}, "converged");
    const auto epoch = c.daemons[1]->view().id.epoch;

    net::NicId a = c.hosts[0]->nic_id(0);
    net::NicId b = c.hosts[1]->nic_id(0);
    c.fabric.block_direction(a, b);
    ASSERT_TRUE(c.daemons[1]->force_rediscovery("test"));
    c.run(sim::milliseconds(100));
    c.fabric.unblock_direction(a, b);
    c.run(sim::seconds(5.0));
    c.expect_views({first_n(n)}, "after the round");
    EXPECT_GT(c.daemons[1]->view().id.epoch, epoch);
  }
}

TEST(GcsMembership, LossyDiscoveryConvergesAfterHeal) {
  GcsCluster c(5);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2, 3, 4}}, "converged");

  // 30 % segment loss through the fault and the discovery window.
  c.fabric.set_drop_probability(c.seg, 0.3);
  c.hosts[4]->set_interface_up(0, false);
  c.run(sim::seconds(5.0));
  c.fabric.set_drop_probability(c.seg, 0.0);
  c.run(sim::seconds(10.0));
  c.expect_views({{0, 1, 2, 3}}, "after the loss heals");
  auto id = c.daemons[0]->view().id;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.daemons[static_cast<std::size_t>(i)]->view().id, id);
  }
}

}  // namespace
}  // namespace wam::testing
