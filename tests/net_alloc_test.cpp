// Exact heap-allocation counts on the UDP send path and the per-VIP path.
//
// This executable replaces the global operator new/delete with counting
// versions, so every allocation the library makes between two reads of the
// counter is seen. A request/echo round trip in steady state (ARP
// resolved, sockets open, scheduler slab and per-burst containers warm)
// costs four allocations: the caller's request payload and its frame block,
// then the echo server's reply payload and its frame block. A log record,
// an alias bind/unbind and an event emitted into a full timeline in steady
// state cost none.
// Counts are exact functions of the code, so a slide shows here long
// before it shows in wall time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "apps/echo.hpp"
#include "net/fabric.hpp"
#include "net/host.hpp"
#include "obs/observability.hpp"
#include "sim/log.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/shared_bytes.hpp"

namespace {
std::size_t g_allocations = 0;  // the tests are single-threaded
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace wam::net {
namespace {

constexpr int kRoundTrips = 200;
constexpr std::size_t kAllocsPerRoundTrip = 4;

TEST(SharedBytesAlloc, BuildMakesExactlyOneAllocation) {
  const util::Bytes src{1, 2, 3, 4, 5, 6, 7, 8};
  const std::size_t before = g_allocations;
  auto block = util::SharedBytes::build(
      src.size(), [&src](util::SpanWriter& w) { w.raw(src); });
  EXPECT_EQ(g_allocations - before, 1u);
  EXPECT_EQ(block, src);
}

TEST(SharedBytesAlloc, BuildRejectsAFillOfTheWrongSize) {
  EXPECT_THROW((void)util::SharedBytes::build(
                   4, [](util::SpanWriter& w) { w.u16(7); }),
               util::ContractViolation);
  EXPECT_THROW((void)util::SharedBytes::build(
                   1, [](util::SpanWriter& w) { w.u16(7); }),
               util::ContractViolation);
}

/// One client and one echo server on a LAN, warmed up so that ARP is
/// resolved and every reusable container has its capacity.
struct EchoLan {
  sim::Scheduler sched;
  Fabric fabric{sched};
  SegmentId seg = fabric.add_segment();
  Host server{sched, fabric, "server"};
  Host client{sched, fabric, "client"};
  apps::EchoServer echo{server};
  std::uint64_t replies = 0;
  std::vector<Host::UdpSend> batch;

  EchoLan() {
    server.add_interface(seg, Ipv4Address(10, 0, 0, 1), 24);
    client.add_interface(seg, Ipv4Address(10, 0, 0, 2), 24);
    echo.start();
    client.open_udp(5000, [this](const Host::UdpContext&,
                                 const util::SharedBytes& payload) {
      if (payload.size() == 4 + 6 + 8) ++replies;  // "server" + request
    });
    batch.reserve(1);
    for (int i = 0; i < 4; ++i) {
      via_send_udp();
      via_burst();
    }
    replies = 0;
  }

  void via_send_udp() {
    client.send_udp(server.primary_ip(0), 9000, 5000,
                    util::Bytes{1, 2, 3, 4, 5, 6, 7, 8});
    sched.run_all();
  }

  void via_burst() {
    batch.push_back(Host::UdpSend{server.primary_ip(0), 9000, 5000,
                                  util::Bytes{1, 2, 3, 4, 5, 6, 7, 8}});
    client.send_udp_burst(batch);
    batch.clear();
    sched.run_all();
  }
};

TEST(UdpSendAlloc, BurstRoundTripCostsFourAllocations) {
  EchoLan lan;
  const std::size_t before = g_allocations;
  for (int i = 0; i < kRoundTrips; ++i) lan.via_burst();
  const std::size_t allocs = g_allocations - before;
  EXPECT_EQ(lan.replies, static_cast<std::uint64_t>(kRoundTrips));
  EXPECT_LE(allocs, kAllocsPerRoundTrip * kRoundTrips);
}

TEST(UdpSendAlloc, SendUdpRoundTripCostsFourAllocations) {
  EchoLan lan;
  const std::size_t before = g_allocations;
  for (int i = 0; i < kRoundTrips; ++i) lan.via_send_udp();
  const std::size_t allocs = g_allocations - before;
  EXPECT_EQ(lan.replies, static_cast<std::uint64_t>(kRoundTrips));
  EXPECT_LE(allocs, kAllocsPerRoundTrip * kRoundTrips);
}

TEST(LogAlloc, SteadyStateRecordWithTwoArgumentsAllocatesNothing) {
  sim::Scheduler sched;
  sim::Log log(sched, 256);
  sim::Logger logger(&log, "net/server");
  const Ipv4Address ip(10, 0, 0, 100);
  const std::string group = "vip-10001";
  // Warm: fill the ring past one wrap so every slot has been claimed.
  for (int i = 0; i < 600; ++i) logger.info("alias + %s on if%d", ip, i);
  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    logger.info("alias + %s on if%d", ip, i);
    logger.info("acquired VIP group %s (%d)", group, i);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(log.records().back().message, "acquired VIP group vip-10001 (999)");
}

TEST(AliasAlloc, SteadyStateAliasChurnAllocatesNothing) {
  sim::Scheduler sched;
  Fabric fabric{sched};
  Host host{sched, fabric, "server"};
  host.add_interface(fabric.add_segment(), Ipv4Address(10, 0, 0, 1), 24);
  auto vip = [](int k) {
    return Ipv4Address(10, 0, static_cast<std::uint8_t>(1 + k / 250),
                       static_cast<std::uint8_t>(1 + k % 250));
  };
  for (int k = 0; k < 512; ++k) host.add_alias(0, vip(k));
  for (int k = 0; k < 512; ++k) host.remove_alias(0, vip(k));
  const std::size_t before = g_allocations;
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 512; ++k) host.add_alias(0, vip(k));
    EXPECT_TRUE(host.owns_ip(vip(511)));
    for (int k = 0; k < 512; ++k) host.remove_alias(0, vip(k));
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_FALSE(host.owns_ip(vip(0)));
  EXPECT_TRUE(host.owns_ip(Ipv4Address(10, 0, 0, 1)));
}

TEST(EventAlloc, SteadyStateEmitIntoAFullTimelineAllocatesNothing) {
  obs::Observability obs;
  const std::string_view wam = obs.intern("wam/s1");
  const std::string_view ip = obs.intern("ip/s1");
  const obs::Interned group{"10.0.0.100"};  // as group_name() returns it
  const std::size_t addresses = 4;
  auto emit_round = [&](std::int64_t t) {
    const sim::TimePoint now{sim::Duration(t)};
    obs.emit(now, obs::EventType::kStateTransition, wam,
             {{"from", "GATHER"}, {"to", "RUN"}});
    obs.emit(now, obs::EventType::kVipAcquired, wam, {{"group", group}});
    obs.emit(now, obs::EventType::kArpAnnounce, ip,
             {{"group", group}, {"addresses", addresses}});
  };
  std::int64_t t = 0;
  while (obs.bus.dropped() == 0) emit_round(++t);
  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) emit_round(++t);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(obs.bus.size(), obs::EventTimeline::kCapacity);
}

}  // namespace
}  // namespace wam::net
