// SimIpManager: acquire/release side effects, router spoofing, notify-
// target handling with garbage collection (§5.2), and the periodic
// re-announce anti-entropy.
#include <gtest/gtest.h>

#include <memory>

#include "net/fabric.hpp"
#include "wackamole/ip_manager.hpp"

namespace wam::wackamole {
namespace {

struct IpManagerTest : ::testing::Test {
  sim::Scheduler sched;
  net::Fabric fabric{sched};
  net::SegmentId seg = fabric.add_segment();
  std::unique_ptr<net::Host> server, router, peer;
  VipGroup group{"web", {{net::Ipv4Address(10, 0, 0, 100), 0}}};

  void SetUp() override {
    server = std::make_unique<net::Host>(sched, fabric, "server");
    server->add_interface(seg, net::Ipv4Address(10, 0, 0, 1), 24);
    router = std::make_unique<net::Host>(sched, fabric, "router");
    router->add_interface(seg, net::Ipv4Address(10, 0, 0, 254), 24);
    peer = std::make_unique<net::Host>(sched, fabric, "peer");
    peer->add_interface(seg, net::Ipv4Address(10, 0, 0, 7), 24);
  }
};

TEST_F(IpManagerTest, AcquireBindsAndHolds) {
  SimIpManager mgr(*server);
  EXPECT_FALSE(mgr.holds(intern_group("web")));
  mgr.acquire(group);
  EXPECT_TRUE(mgr.holds(intern_group("web")));
  EXPECT_TRUE(server->owns_ip(net::Ipv4Address(10, 0, 0, 100)));
  mgr.release(group);
  EXPECT_FALSE(mgr.holds(intern_group("web")));
  EXPECT_FALSE(server->owns_ip(net::Ipv4Address(10, 0, 0, 100)));
}

TEST_F(IpManagerTest, AcquireSpoofsTheRouter) {
  SimIpManager mgr(*server);
  mgr.set_router(0, net::Ipv4Address(10, 0, 0, 254));
  mgr.acquire(group);
  sched.run_all();
  auto cached = router->arp_cache().lookup(net::Ipv4Address(10, 0, 0, 100),
                                           sched.now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, server->mac(0));
}

TEST_F(IpManagerTest, NotifyTargetsGetUnicastSpoofs) {
  SimIpManager mgr(*server);
  mgr.add_notify_target(net::Ipv4Address(10, 0, 0, 7));
  mgr.acquire(group);
  sched.run_all();
  auto cached = peer->arp_cache().lookup(net::Ipv4Address(10, 0, 0, 100),
                                         sched.now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, server->mac(0));
}

TEST_F(IpManagerTest, OffSubnetNotifyTargetsSkipped) {
  SimIpManager mgr(*server);
  mgr.add_notify_target(net::Ipv4Address(192, 168, 9, 9));
  auto before = server->counters().arp_replies_sent;
  mgr.acquire(group);
  sched.run_all();
  // gratuitous only (1) — no spoof for the unreachable target.
  EXPECT_EQ(server->counters().arp_replies_sent, before + 1);
}

TEST_F(IpManagerTest, NotifyTargetGarbageCollection) {
  SimIpManager mgr(*server);
  mgr.set_notify_target_ttl(sim::seconds(10.0));
  mgr.add_notify_target(net::Ipv4Address(10, 0, 0, 7));
  sched.run_for(sim::seconds(5.0));
  mgr.add_notify_target(net::Ipv4Address(10, 0, 0, 8));
  sched.run_for(sim::seconds(7.0));  // .7 is now 12 s old, .8 is 7 s old
  mgr.acquire(group);
  sched.run_all();
  auto targets = mgr.notify_targets();
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], net::Ipv4Address(10, 0, 0, 8));
}

TEST_F(IpManagerTest, RefreshKeepsTargetAlive) {
  SimIpManager mgr(*server);
  mgr.set_notify_target_ttl(sim::seconds(10.0));
  mgr.add_notify_target(net::Ipv4Address(10, 0, 0, 7));
  sched.run_for(sim::seconds(8.0));
  mgr.add_notify_target(net::Ipv4Address(10, 0, 0, 7));  // refresh
  sched.run_for(sim::seconds(8.0));
  mgr.acquire(group);
  EXPECT_EQ(mgr.notify_targets().size(), 1u);
}

TEST_F(IpManagerTest, AnnounceOnlyWhenHeld) {
  SimIpManager mgr(*server);
  auto before = server->counters().arp_replies_sent;
  mgr.announce(group);  // not held: no-op
  sched.run_all();
  EXPECT_EQ(server->counters().arp_replies_sent, before);
}

TEST_F(IpManagerTest, AnnounceRepairsPoisonedCache) {
  SimIpManager mgr(*server);
  mgr.acquire(group);
  sched.run_all();
  // Poison the peer's cache (it had resolved the VIP to someone else).
  peer->arp_cache().put(net::Ipv4Address(10, 0, 0, 100),
                        net::MacAddress::from_index(999), sched.now());
  mgr.announce(group);
  sched.run_all();
  EXPECT_EQ(*peer->arp_cache().lookup(net::Ipv4Address(10, 0, 0, 100),
                                      sched.now()),
            server->mac(0));
}

TEST_F(IpManagerTest, RecordingManagerTracksOps) {
  RecordingIpManager mgr;
  mgr.acquire(group);
  mgr.announce(group);
  mgr.release(group);
  EXPECT_EQ(mgr.ops(),
            (std::vector<std::string>{"acquire web", "announce web",
                                      "release web"}));
  EXPECT_FALSE(mgr.holds(intern_group("web")));
}

TEST_F(IpManagerTest, MultiAddressGroupBindsEverything) {
  auto seg2 = fabric.add_segment();
  auto multi = std::make_unique<net::Host>(sched, fabric, "r1");
  multi->add_interface(seg, net::Ipv4Address(10, 0, 0, 2), 24);
  multi->add_interface(seg2, net::Ipv4Address(192, 168, 1, 2), 24);
  SimIpManager mgr(*multi);
  VipGroup vr{"vr",
              {{net::Ipv4Address(10, 0, 0, 200), 0},
               {net::Ipv4Address(192, 168, 1, 1), 1}}};
  mgr.acquire(vr);
  EXPECT_TRUE(multi->owns_ip(net::Ipv4Address(10, 0, 0, 200)));
  EXPECT_TRUE(multi->owns_ip(net::Ipv4Address(192, 168, 1, 1)));
  mgr.release(vr);
  EXPECT_FALSE(multi->owns_ip(net::Ipv4Address(10, 0, 0, 200)));
  EXPECT_FALSE(multi->owns_ip(net::Ipv4Address(192, 168, 1, 1)));
}

// Satellite regression pin: spoofing a notify target from announce() must
// NOT refresh its TTL clock — only an explicit add_notify_target() does.
// Otherwise the periodic re-announce would keep every stale target alive
// forever and the §5.2 garbage collection could never drop anything.
TEST_F(IpManagerTest, AnnounceDoesNotRefreshNotifyTtl) {
  SimIpManager mgr(*server);
  mgr.set_notify_target_ttl(sim::seconds(10.0));
  mgr.acquire(group);
  mgr.add_notify_target(net::Ipv4Address(10, 0, 0, 7));
  sched.run_for(sim::seconds(8.0));
  mgr.announce(group);  // spoofs the target...
  // ...after the 5 ms ARP-resolution retry inside send_spoofed_reply.
  sched.run_for(sim::milliseconds(10));
  ASSERT_TRUE(peer->arp_cache()
                  .lookup(net::Ipv4Address(10, 0, 0, 100), sched.now())
                  .has_value());
  sched.run_for(sim::seconds(4.0));  // ...but at 12 s of age it still dies
  mgr.announce(group);
  EXPECT_TRUE(mgr.notify_targets().empty());
}

TEST_F(IpManagerTest, AcquireDetectsDuplicateAddress) {
  SimIpManager first(*peer);
  ASSERT_TRUE(first.acquire(group).ok());

  SimIpManager mgr(*server);
  auto r = mgr.acquire(group);
  EXPECT_EQ(r.status, OsOpStatus::kConflict);
  EXPECT_FALSE(mgr.holds(intern_group("web")));
  EXPECT_FALSE(server->owns_ip(net::Ipv4Address(10, 0, 0, 100)));

  // Once the rightful holder releases, acquisition goes through.
  first.release(group);
  EXPECT_TRUE(mgr.acquire(group).ok());
  EXPECT_TRUE(server->owns_ip(net::Ipv4Address(10, 0, 0, 100)));
}

TEST_F(IpManagerTest, ConflictProbeIgnoresDownedHolders) {
  SimIpManager first(*peer);
  ASSERT_TRUE(first.acquire(group).ok());
  peer->set_interface_up(0, false);  // dead holders can't answer probes

  SimIpManager mgr(*server);
  EXPECT_TRUE(mgr.acquire(group).ok());
}

TEST_F(IpManagerTest, FaultyDefaultsArePassThrough) {
  SimIpManager inner(*server);
  FaultyIpManager mgr(inner, 42);
  EXPECT_TRUE(mgr.acquire(group).ok());
  EXPECT_TRUE(mgr.holds(intern_group("web")));
  EXPECT_TRUE(mgr.announce(group).ok());
  EXPECT_TRUE(mgr.release(group).ok());
  EXPECT_EQ(mgr.failures_injected(), 0u);
}

TEST_F(IpManagerTest, FaultyStickyFailsAcquireAndAnnounceUntilHealed) {
  SimIpManager inner(*server);
  FaultyIpManager mgr(inner, 42);
  mgr.set_sticky_group("web", true);
  EXPECT_EQ(mgr.acquire(group).status, OsOpStatus::kFailed);
  EXPECT_FALSE(mgr.holds(intern_group("web")));
  // Sticky state fails the side-effect-free health probe too.
  EXPECT_EQ(mgr.announce(group).status, OsOpStatus::kFailed);
  EXPECT_EQ(mgr.failures_injected(), 2u);
  mgr.heal();
  EXPECT_TRUE(mgr.acquire(group).ok());
  EXPECT_TRUE(mgr.holds(intern_group("web")));
}

TEST_F(IpManagerTest, FaultyProbabilityOneAlwaysFails) {
  SimIpManager inner(*server);
  FaultyIpManager mgr(inner, 42);
  mgr.set_acquire_fail_probability(1.0);
  EXPECT_EQ(mgr.acquire(group).status, OsOpStatus::kFailed);
  mgr.set_release_fail_probability(1.0);
  EXPECT_EQ(mgr.release(group).status, OsOpStatus::kFailed);
  mgr.heal();
  EXPECT_TRUE(mgr.acquire(group).ok());
  EXPECT_TRUE(mgr.release(group).ok());
}

TEST_F(IpManagerTest, FaultyScheduledFaultFiresOnce) {
  RecordingIpManager inner;
  FaultyIpManager mgr(inner, 42);
  mgr.fail_acquires_after(2);
  EXPECT_TRUE(mgr.acquire(group).ok());                       // 1st passes
  EXPECT_EQ(mgr.acquire(group).status, OsOpStatus::kFailed);  // 2nd fails
  EXPECT_TRUE(mgr.acquire(group).ok());                       // disarmed
  // The injected failure never reached the inner manager.
  EXPECT_EQ(inner.ops(),
            (std::vector<std::string>{"acquire web", "acquire web"}));
}

TEST_F(IpManagerTest, ArpLoseSwallowsAnnouncesSilently) {
  SimIpManager inner(*server);
  FaultyIpManager mgr(inner, 42);
  ASSERT_TRUE(mgr.acquire(group).ok());
  sched.run_all();
  mgr.set_arp_lose(true);
  peer->arp_cache().put(net::Ipv4Address(10, 0, 0, 100),
                        net::MacAddress::from_index(999), sched.now());
  EXPECT_TRUE(mgr.announce(group).ok());  // "succeeds"...
  sched.run_all();
  // ...but the poisoned cache was never repaired: nothing hit the wire.
  EXPECT_EQ(*peer->arp_cache().lookup(net::Ipv4Address(10, 0, 0, 100),
                                      sched.now()),
            net::MacAddress::from_index(999));
  EXPECT_EQ(mgr.failures_injected(), 1u);
}

TEST_F(IpManagerTest, RecordingManagerScriptedResults) {
  RecordingIpManager mgr;
  mgr.push_result(OsOpResult::failed("ebusy"));
  mgr.push_result(OsOpResult::conflict("dup"));
  EXPECT_EQ(mgr.acquire(group).status, OsOpStatus::kFailed);
  EXPECT_FALSE(mgr.holds(intern_group("web")));
  EXPECT_EQ(mgr.acquire(group).status, OsOpStatus::kConflict);
  EXPECT_FALSE(mgr.holds(intern_group("web")));
  EXPECT_TRUE(mgr.acquire(group).ok());  // queue drained: success again
  EXPECT_TRUE(mgr.holds(intern_group("web")));
  EXPECT_EQ(mgr.ops(),
            (std::vector<std::string>{"acquire web [failed]",
                                      "acquire web [conflict]",
                                      "acquire web"}));
}

// holds() is keyed by interned id; every manager flips it only on a
// successful acquire or release.
TEST_F(IpManagerTest, HoldsByIdAcrossAcquireReleaseAndFailedAcquire) {
  obs::Observability obs;
  const auto web = intern_group("web");
  const auto other = intern_group("web-other");
  VipGroup second{"web-other", {{net::Ipv4Address(10, 0, 0, 101), 0}}};

  SimIpManager sim_mgr(*server);
  sim_mgr.bind_observability(obs, "ip/s1");
  auto held_gauge = [&] {
    return obs.registry.gauge_value("ip/s1/held_groups");
  };
  FaultyIpManager faulty_mgr(sim_mgr, 7);
  RecordingIpManager rec_mgr;

  // A failed acquire leaves nothing held: a duplicate address for the Sim
  // manager, a sticky fault for the decorator, a scripted failure for the
  // recorder.
  peer->add_alias(0, net::Ipv4Address(10, 0, 0, 101));
  EXPECT_EQ(sim_mgr.acquire(second).status, OsOpStatus::kConflict);
  EXPECT_FALSE(sim_mgr.holds(other));
  faulty_mgr.set_sticky_group("web", true);
  EXPECT_EQ(faulty_mgr.acquire(group).status, OsOpStatus::kFailed);
  EXPECT_FALSE(faulty_mgr.holds(web));
  rec_mgr.push_result(OsOpResult::failed("ebusy"));
  EXPECT_EQ(rec_mgr.acquire(group).status, OsOpStatus::kFailed);
  EXPECT_FALSE(rec_mgr.holds(web));
  EXPECT_EQ(held_gauge(), 0.0);

  faulty_mgr.heal();
  ASSERT_TRUE(faulty_mgr.acquire(group).ok());
  ASSERT_TRUE(rec_mgr.acquire(group).ok());
  EXPECT_TRUE(sim_mgr.holds(web));
  EXPECT_TRUE(faulty_mgr.holds(web));
  EXPECT_TRUE(rec_mgr.holds(web));
  EXPECT_FALSE(sim_mgr.holds(other));
  EXPECT_FALSE(rec_mgr.holds(other));
  EXPECT_EQ(held_gauge(), 1.0);

  ASSERT_TRUE(faulty_mgr.release(group).ok());
  ASSERT_TRUE(rec_mgr.release(group).ok());
  EXPECT_FALSE(sim_mgr.holds(web));
  EXPECT_FALSE(faulty_mgr.holds(web));
  EXPECT_FALSE(rec_mgr.holds(web));
  EXPECT_EQ(held_gauge(), 0.0);
}

}  // namespace
}  // namespace wam::wackamole
