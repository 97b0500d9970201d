// Unit probes: ns per call of each layer's hot public functions, at the
// shape (members, VIPs, pending-event depth) the workload itself ran.
//
// They run after the traced rep, outside every timed phase. Multiplied by
// the matching call counter they give an *estimate* of the layer's share
// of a rep's wall time; the estimate ignores cache effects of the real
// interleaving and is reported as such.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "gcs/message.hpp"
#include "net/fabric.hpp"
#include "sim/scheduler.hpp"
#include "wackamole/balance.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

namespace e2e {

namespace {

using namespace wam;

/// Keeps a result alive so the optimizer cannot drop the probed call.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median ns per call of `body(n)` (which makes n calls) over 5 batches
/// of ~10 ms each.
template <class Body>
double ns_per_call(Body&& body) {
  std::uint64_t n = 1;
  for (;;) {  // calibrate the batch size
    const double t0 = wall_now();
    body(n);
    if (wall_now() - t0 >= 0.01 || n >= (1ULL << 30)) break;
    n *= 2;
  }
  std::vector<double> batches;
  for (int i = 0; i < 5; ++i) {
    const double t0 = wall_now();
    body(n);
    batches.push_back((wall_now() - t0) * 1e9 / static_cast<double>(n));
  }
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

gcs::MemberId member(int i) {
  return gcs::MemberId{
      gcs::DaemonId(net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i / 250),
                                     static_cast<std::uint8_t>(i % 250 + 1))),
      1, "wackamole"};
}

/// Scheduler::schedule + step with `depth` other events pending.
double probe_scheduler(std::size_t depth) {
  sim::Scheduler sched;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule(sim::seconds(1e6) + sim::nanoseconds(static_cast<std::int64_t>(i)),
                   [&fired] { ++fired; });
  }
  const double ns = ns_per_call([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      sched.schedule(sim::microseconds(1), [&fired] { ++fired; });
      sched.step();
    }
  });
  keep(fired);
  return ns;
}

/// One Fabric::send broadcast to `members` NICs, per receiving NIC.
double probe_fabric_broadcast(int members) {
  sim::Scheduler sched;
  net::Fabric fabric(sched);
  const auto seg = fabric.add_segment();
  std::uint64_t received = 0;
  std::vector<net::NicId> nics;
  for (int i = 0; i < members; ++i) {
    nics.push_back(fabric.attach(seg, fabric.allocate_mac(),
                                 [&received](const net::Frame&, net::NicId) {
                                   ++received;
                                 }));
  }
  net::Frame frame;
  frame.dst = net::MacAddress::broadcast();
  frame.src = fabric.mac_of(nics.front());
  frame.payload = util::Bytes(64, 0x5a);  // heartbeat-sized
  std::uint64_t sends = 0;
  const double ns = ns_per_call([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      fabric.send(nics.front(), frame);
      sched.run_all();
    }
    sends += n;
  });
  const double per_send = received > 0 ? static_cast<double>(received) /
                                             static_cast<double>(sends)
                                       : 1.0;
  return ns / per_send;
}

/// gcs::encode + gcs::decode of a heartbeat (the all-to-all message).
double probe_gcs_codec() {
  gcs::Heartbeat hb;
  hb.sender = member(0).daemon;
  hb.view = gcs::ViewId{42, member(0).daemon};
  hb.delivered_seq = 1234;
  hb.stable_seq = 1200;
  hb.fifo_seq = 17;
  return ns_per_call([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      auto decoded = gcs::decode(gcs::encode(gcs::Message(hb)));
      keep(decoded);
    }
  });
}

struct Placement {
  std::vector<std::string> names;
  wackamole::GroupSet set;
  std::vector<wackamole::MemberInfo> infos;

  Placement(int vips, int members) : names(make_names(vips)), set(names) {
    for (int i = 0; i < members; ++i) {
      infos.push_back(wackamole::MemberInfo{member(i), true, 1, {}, {}});
    }
  }
  static std::vector<std::string> make_names(int vips) {
    std::vector<std::string> out;
    for (int k = 0; k < vips; ++k) out.push_back("vip-" + std::to_string(10000 + k));
    return out;
  }
};

/// reallocate_ips_fast after one member failed: its V/M groups are holes,
/// the survivors hold the rest round-robin.
double probe_reallocate(int vips, int members) {
  Placement p(vips, members);
  wackamole::VipTable table;
  for (int k = 0; k < vips; ++k) {
    if (k % members != 0) table.set_owner(p.names[static_cast<std::size_t>(k)],
                                          member(k % members));
  }
  std::vector<wackamole::MemberInfo> survivors(p.infos.begin() + 1,
                                               p.infos.end());
  if (survivors.empty()) survivors = p.infos;
  const auto states = wackamole::to_member_states(p.set, survivors);
  return ns_per_call([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      auto a = wackamole::reallocate_ips_fast(p.set, table, states);
      keep(a);
    }
  });
}

/// balance_ips_fast after the failed member rejoined empty-handed.
double probe_balance(int vips, int members) {
  Placement p(vips, members);
  wackamole::VipTable table;
  const int others = std::max(1, members - 1);
  for (int k = 0; k < vips; ++k) {
    table.set_owner(p.names[static_cast<std::size_t>(k)],
                    member(members > 1 ? 1 + k % others : 0));
  }
  const auto states = wackamole::to_member_states(p.set, p.infos);
  return ns_per_call([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      auto a = wackamole::balance_ips_fast(p.set, table, states);
      keep(a);
    }
  });
}

/// encode_state_v2 + decode_state_v2 of one member's share (V/M groups).
double probe_state_codec(int vips, int members) {
  wackamole::StateMsgV2 m;
  m.view = wackamole::ViewTag{42, 0x0a000001, 7};
  m.mature = true;
  for (int k = 0; k < vips; k += std::max(1, members)) {
    m.owned.push_back(wackamole::intern_group("vip-" + std::to_string(10000 + k)));
  }
  return ns_per_call([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      auto decoded = wackamole::decode_state_v2(wackamole::encode_state_v2(m));
      keep(decoded);
    }
  });
}

}  // namespace

std::map<std::string, double> run_unit_probes(const Shape& shape) {
  const int m = std::max(1, shape.members);
  const int v = std::max(1, shape.vips);
  return {
      {"unit.sched_ns", probe_scheduler(shape.pending_events)},
      {"unit.fabric_rx_ns", probe_fabric_broadcast(m)},
      {"unit.gcs_codec_ns", probe_gcs_codec()},
      {"unit.realloc_ns", probe_reallocate(v, m)},
      {"unit.balance_ns", probe_balance(v, m)},
      {"unit.state_codec_ns", probe_state_codec(v, m)},
  };
}

}  // namespace e2e
