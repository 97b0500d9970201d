// Google-benchmark microbenchmarks for the hot algorithm and substrate
// paths: the deterministic allocation procedures, wire codecs, ARP cache
// and end-to-end simulated packet delivery. Run with no arguments it
// writes BENCH_micro_core.json (google-benchmark JSON) next to the binary;
// tools/check_bench.py compares such files across commits.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/echo.hpp"
#include "gcs/message.hpp"
#include "net/fabric.hpp"
#include "net/host.hpp"
#include "sim/scheduler.hpp"
#include "util/shared_bytes.hpp"
#include "wackamole/balance.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

using namespace wam;

namespace {

gcs::MemberId member(int n) {
  return gcs::MemberId{
      gcs::DaemonId(net::Ipv4Address(10, 0, static_cast<std::uint8_t>(n / 250),
                                     static_cast<std::uint8_t>(n % 250 + 1))),
      1, "w"};
}

std::vector<std::string> make_groups(int n) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back("vip-" + std::to_string(1000 + i));
  }
  return out;
}

std::vector<wackamole::MemberInfo> make_members(int m) {
  std::vector<wackamole::MemberInfo> out;
  for (int i = 0; i < m; ++i) {
    out.push_back(wackamole::MemberInfo{member(i), true, 1, {}, {}});
  }
  return out;
}

// ---- Placement ----
//
// The allocation procedures exactly as the daemon runs them: GroupSet and
// MemberStates are built once when the configuration / membership
// changes, and each round calls the dense *_fast procedure.

void BM_ReallocateIps(benchmark::State& state) {
  auto groups = make_groups(static_cast<int>(state.range(0)));
  auto members = make_members(static_cast<int>(state.range(1)));
  wackamole::GroupSet set(groups);
  auto states = wackamole::to_member_states(set, members);
  wackamole::VipTable table;  // everything uncovered
  for (auto _ : state) {
    auto a = wackamole::reallocate_ips_fast(set, table, states);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(groups.size()));
}
BENCHMARK(BM_ReallocateIps)
    ->Args({10, 4})
    ->Args({100, 12})
    ->Args({1000, 32})
    ->Args({4096, 64});

void BM_BalanceIps(benchmark::State& state) {
  auto groups = make_groups(static_cast<int>(state.range(0)));
  auto members = make_members(static_cast<int>(state.range(1)));
  wackamole::GroupSet set(groups);
  auto states = wackamole::to_member_states(set, members);
  wackamole::VipTable table;
  for (const auto& g : groups) table.set_owner(g, members[0].id);
  for (auto _ : state) {
    auto a = wackamole::balance_ips_fast(set, table, states);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(groups.size()));
}
BENCHMARK(BM_BalanceIps)
    ->Args({10, 4})
    ->Args({100, 12})
    ->Args({1000, 32})
    ->Args({4096, 64});

void BM_ResolveConflictClaims(benchmark::State& state) {
  auto groups = make_groups(64);
  gcs::GroupView view;
  view.members = {member(0), member(1)};
  for (auto _ : state) {
    wackamole::VipTable table;
    for (const auto& g : groups) table.claim(g, member(0), view);
    for (const auto& g : groups) table.claim(g, member(1), view);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ResolveConflictClaims);

// ---- STATE_MSG build + encode ----
//
// Measures what a daemon pays per STATE_MSG send, replicating
// send_state_msg() exactly (minus the ip_manager holds() probe): owned ids
// in (pre-sorted) position order, copied GroupId vectors, interned
// quarantine names, and the compact v2 encoder, whose name table is built
// with O(1) stamp checks per id. Names are long with a shared prefix, as
// real deployment names ("wackamole-cluster-vip-...") are.

std::vector<std::string> make_wire_names(int n) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back("wackamole-production-virtual-address-" +
                  std::to_string(100000 + i));
  }
  return out;
}

// The daemon's per-send state: every VIP owned, every 4th preferred,
// every 16th quarantined (overlapping lists, the name table dedupes).
struct WireFixture {
  explicit WireFixture(int n) {
    auto names = make_wire_names(n);
    for (int i = 0; i < n; ++i) {
      const auto& name = names[static_cast<std::size_t>(i)];
      owned_ids.push_back(wackamole::intern_group(name));
      if (i % 4 == 0) preferred_ids.push_back(owned_ids.back());
      if (i % 16 == 0) quarantined_set.insert(name);
    }
  }
  std::set<std::string> quarantined_set;  // Daemon::quarantined_ replica
  std::vector<wackamole::GroupId> owned_ids, preferred_ids;
};

void BM_StateEncode(benchmark::State& state) {
  WireFixture fx(static_cast<int>(state.range(0)));
  const wackamole::ViewTag tag{42, 0x0a000001, 7};
  for (auto _ : state) {
    wackamole::StateMsgV2 m;
    m.view = tag;
    m.mature = true;
    m.weight = 1;
    m.owned = fx.owned_ids;  // position order is already name order
    m.preferred = fx.preferred_ids;
    m.quarantined.reserve(fx.quarantined_set.size());
    for (const auto& name : fx.quarantined_set) {
      m.quarantined.push_back(wackamole::intern_group(name));
    }
    auto bytes = wackamole::encode_state_v2(m);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateEncode)->Arg(256)->Arg(1024)->Arg(4096);

// Decode side: interns each table name once and reads varint indices.
void BM_StateDecode(benchmark::State& state) {
  WireFixture fx(static_cast<int>(state.range(0)));
  wackamole::StateMsgV2 m;
  m.view = wackamole::ViewTag{42, 0x0a000001, 7};
  m.mature = true;
  m.owned = fx.owned_ids;
  m.preferred = fx.preferred_ids;
  for (const auto& name : fx.quarantined_set) {
    m.quarantined.push_back(wackamole::intern_group(name));
  }
  auto bytes = wackamole::encode_state_v2(m);
  for (auto _ : state) {
    auto decoded = wackamole::decode_state_v2(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateDecode)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GcsDataCodec(benchmark::State& state) {
  gcs::DataMessage d;
  d.view = gcs::ViewId{7, member(0).daemon};
  d.seq = 42;
  d.sender = member(1);
  d.group = "wackamole";
  d.payload = util::Bytes(256, 0xab);
  for (auto _ : state) {
    auto bytes = gcs::encode(gcs::Message(d));
    auto decoded = gcs::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_GcsDataCodec);

void BM_ArpCacheLookup(benchmark::State& state) {
  net::ArpCache cache;
  for (int i = 0; i < 256; ++i) {
    cache.put(net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i)),
              net::MacAddress::from_index(static_cast<std::uint16_t>(i)),
              sim::TimePoint{});
  }
  int i = 0;
  for (auto _ : state) {
    auto mac = cache.lookup(
        net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i++ & 0xff)),
        sim::TimePoint{});
    benchmark::DoNotOptimize(mac);
  }
}
BENCHMARK(BM_ArpCacheLookup);

// End-to-end: one UDP request/response round trip through the simulated
// stack (ARP resolved once up front).
void BM_SimulatedUdpRoundTrip(benchmark::State& state) {
  sim::Scheduler sched;
  net::Fabric fabric(sched);
  auto seg = fabric.add_segment();
  net::Host server(sched, fabric, "server");
  server.add_interface(seg, net::Ipv4Address(10, 0, 0, 1), 24);
  net::Host client(sched, fabric, "client");
  client.add_interface(seg, net::Ipv4Address(10, 0, 0, 2), 24);
  apps::EchoServer echo(server);
  echo.start();
  std::uint64_t replies = 0;
  client.open_udp(5000, [&](const net::Host::UdpContext&,
                            const util::SharedBytes&) { ++replies; });
  // Warm the ARP caches.
  client.send_udp(net::Ipv4Address(10, 0, 0, 1), 9000, 5000, {0});
  sched.run_all();
  for (auto _ : state) {
    client.send_udp(net::Ipv4Address(10, 0, 0, 1), 9000, 5000, {1});
    sched.run_all();
  }
  benchmark::DoNotOptimize(replies);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedUdpRoundTrip);

// ---- Scheduler timer churn: the fail-over protocol's hot loop ----
//
// Every heartbeat period each daemon arms a fault-detection timer, hears
// the heartbeat, cancels it and re-arms. Modelled here as: arm a batch of
// timers, cancel half, fire the rest, repeat (no per-event allocation once
// the slab is warm).

constexpr int kChurnBatch = 64;

void BM_SchedulerTimerChurn(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  std::vector<sim::TimerHandle> handles(kChurnBatch);
  for (auto _ : state) {
    for (int i = 0; i < kChurnBatch; ++i) {
      handles[static_cast<std::size_t>(i)] =
          sched.schedule(sim::milliseconds(i + 1), [&fired] { ++fired; });
    }
    for (int i = 0; i < kChurnBatch; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    sched.run_all();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kChurnBatch);
}
BENCHMARK(BM_SchedulerTimerChurn);

// ---- Broadcast fan-out: one frame to N receivers ----
//
// The fabric delivers a broadcast by scheduling one delivery event per
// attached NIC, each capturing its own copy of the frame; the copies share
// one refcounted payload buffer.

constexpr int kFanOut = 16;
constexpr std::size_t kPayloadSize = 1024;

void BM_FabricBroadcastDelivery(benchmark::State& state) {
  sim::Scheduler sched;
  net::Frame frame;
  frame.dst = net::MacAddress::broadcast();
  frame.src = net::MacAddress::from_index(1);
  frame.type = net::EtherType::kIpv4;
  frame.payload = util::Bytes(kPayloadSize, 0x5a);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < kFanOut; ++i) {
      sched.schedule(sim::microseconds(5), [frame, &delivered] {
        delivered += frame.payload.size();
      });
    }
    sched.run_all();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * kFanOut);
}
BENCHMARK(BM_FabricBroadcastDelivery);

// End-to-end broadcast through the real fabric: one limited-broadcast
// datagram reaching every host on the segment (COW payload sharing in
// anger, ARP-free).
void BM_FabricBroadcastEndToEnd(benchmark::State& state) {
  sim::Scheduler sched;
  net::Fabric fabric(sched);
  auto seg = fabric.add_segment();
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::uint64_t received = 0;
  for (int i = 0; i < kFanOut; ++i) {
    auto h = std::make_unique<net::Host>(sched, fabric,
                                         "h" + std::to_string(i));
    h->add_interface(seg, net::Ipv4Address(10, 0, 0,
                                           static_cast<std::uint8_t>(i + 1)),
                     24);
    h->open_udp(7000, [&received](const net::Host::UdpContext&,
                                  const util::SharedBytes& payload) {
      received += payload.size();
    });
    hosts.push_back(std::move(h));
  }
  util::Bytes payload(kPayloadSize, 0x7e);
  for (auto _ : state) {
    hosts[0]->send_udp_broadcast(0, 7000, 7001, payload);
    sched.run_all();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * (kFanOut - 1));
}
BENCHMARK(BM_FabricBroadcastEndToEnd);

}  // namespace

// Custom main: when the caller passes no --benchmark_out flag, default to
// writing BENCH_micro_core.json in the working directory so CI and the
// docs' "run the benches" instructions get machine-readable output for
// free (tools/check_bench.py consumes it).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
