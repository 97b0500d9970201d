#include "net/fabric.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "sim/shard.hpp"
#include "util/assert.hpp"

namespace wam::net {

namespace {

/// FNV-1a over the frame's addressing and payload; identifies a frame for
/// the delivery journal without storing it.
std::uint64_t frame_digest(const Frame& frame) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
  };
  for (char c : frame.src.to_string()) mix(static_cast<unsigned char>(c));
  for (char c : frame.dst.to_string()) mix(static_cast<unsigned char>(c));
  mix(static_cast<std::uint64_t>(frame.type));
  for (std::uint8_t b : frame.payload) mix(b);
  return h;
}

}  // namespace

Fabric::Fabric(sim::Scheduler& sched, sim::Log* log, std::uint64_t seed)
    : sched_(sched), log_(log, "net/fabric"), seed_(seed) {}

void Fabric::set_sharding(sim::ShardSet& shards) {
  WAM_EXPECTS(shards_ == nullptr);
  WAM_EXPECTS(!tap_);
  for (const auto& seg : segments_) {
    // The conservative guarantee: nothing sent in a window may arrive
    // inside it, so every hop must take at least one lookahead.
    WAM_EXPECTS(seg.config.latency >= shards.lookahead());
  }
  shards_ = &shards;
  nic_shard_.assign(nics_.size(), 0);
  shard_counters_ =
      std::vector<FabricCounters>(static_cast<std::size_t>(shards.size()));
}

void Fabric::assign_shard(NicId id, int shard) {
  WAM_EXPECTS(shards_ != nullptr);
  WAM_EXPECTS(shard >= 0 && shard < shards_->size());
  WAM_EXPECTS(id >= 0 && id < static_cast<NicId>(nic_shard_.size()));
  nic_shard_[static_cast<std::size_t>(id)] = shard;
}

int Fabric::shard_of(NicId id) const {
  (void)nic(id);  // bounds check
  return shards_ == nullptr ? 0 : nic_shard_[static_cast<std::size_t>(id)];
}

void Fabric::fold_shard_counters() const {
  if (shard_counters_.empty()) return;
  // Both enumerations visit fields in the same order, so fold by index.
  std::vector<obs::Counter*> into;
  FabricCounters::for_each(counters_, [&](const char*, obs::Counter& c) {
    into.push_back(&c);
  });
  for (auto& sc : shard_counters_) {
    std::size_t i = 0;
    FabricCounters::for_each(sc, [&](const char*, obs::Counter& c) {
      const std::uint64_t delta = c.value();
      if (delta != 0) {
        *into[i] += delta;
        c = obs::Counter{};
      }
      ++i;
    });
  }
}

const std::vector<Fabric::DeliveryRecord>& Fabric::deliveries(
    NicId id) const {
  (void)nic(id);  // bounds check
  return journal_[static_cast<std::size_t>(id)];
}

sim::Scheduler& Fabric::sched_of(NicId id) {
  if (shards_ == nullptr) return sched_;
  return shards_->shard(nic_shard_[static_cast<std::size_t>(id)]);
}

sim::Rng& Fabric::tx_rng(NicId sender) {
  return nic_rng_[static_cast<std::size_t>(sender)];
}

FabricCounters& Fabric::ctrs(NicId id) {
  if (shards_ == nullptr) return counters_;
  return shard_counters_[static_cast<std::size_t>(
      nic_shard_[static_cast<std::size_t>(id)])];
}

void Fabric::bind_observability(obs::Observability& obs, std::string scope) {
  obs_ = &obs;
  obs_scope_ = std::move(scope);
  obs::bind_counters(obs.registry, counters_, obs_scope_);
}

SegmentId Fabric::add_segment(SegmentConfig config) {
  segments_.push_back(Segment{std::move(config), {}});
  return static_cast<SegmentId>(segments_.size() - 1);
}

SegmentId Fabric::add_segment() { return add_segment(SegmentConfig{}); }

Fabric::SegmentConfig& Fabric::segment_config(SegmentId seg) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  return segments_[static_cast<std::size_t>(seg)].config;
}

NicId Fabric::attach(SegmentId seg, MacAddress mac, DeliverFn deliver) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  WAM_EXPECTS(deliver != nullptr);
  WAM_EXPECTS(!mac.is_broadcast() && !mac.is_null());
  for (const auto& existing : nics_) {
    WAM_EXPECTS(!(existing.segment == seg && existing.mac == mac));
  }
  auto id = static_cast<NicId>(nics_.size());
  nics_.push_back(Nic{seg, mac, true, 0, std::move(deliver)});
  segments_[static_cast<std::size_t>(seg)].nics.push_back(id);
  journal_.emplace_back();
  nic_rng_.push_back(
      sim::Rng(seed_).stream(1 + static_cast<std::uint64_t>(id)));
  if (shards_ != nullptr) nic_shard_.push_back(0);
  return id;
}

void Fabric::set_address_probe(NicId id, AddressProbeFn probe) {
  nic(id).probe = std::move(probe);
}

bool Fabric::address_in_use(NicId asking, Ipv4Address ip) const {
  const auto& asker = nic(asking);
  if (!asker.up) return false;
  for (const auto& other_id :
       segments_[static_cast<std::size_t>(asker.segment)].nics) {
    if (other_id == asking) continue;
    const auto& other = nic(other_id);
    if (!other.up || other.component != asker.component) continue;
    // A probe is a round trip: the who-has must reach the holder and the
    // is-at must make it back. (Empty-set guard: asymmetric links are a
    // chaos-only feature, so the common case skips both tree lookups.)
    if (!blocked_.empty() && (blocked_.count({asking, other_id}) > 0 ||
                              blocked_.count({other_id, asking}) > 0)) {
      continue;
    }
    if (other.probe && other.probe(ip)) return true;
  }
  return false;
}

const Fabric::Nic& Fabric::nic(NicId id) const {
  WAM_EXPECTS(id >= 0 && id < static_cast<NicId>(nics_.size()));
  return nics_[static_cast<std::size_t>(id)];
}

Fabric::Nic& Fabric::nic(NicId id) {
  WAM_EXPECTS(id >= 0 && id < static_cast<NicId>(nics_.size()));
  return nics_[static_cast<std::size_t>(id)];
}

void Fabric::set_nic_up(NicId id, bool up) {
  auto& n = nic(id);
  if (n.up != up) {
    log_.debug("nic %d (%s) %s", id, n.mac,
               up ? "up" : "down");
  }
  n.up = up;
}

void Fabric::add_mac_filter(NicId id, MacAddress mac) {
  WAM_EXPECTS(mac.is_group());
  nic(id).filters.insert(mac);
}

void Fabric::remove_mac_filter(NicId id, MacAddress mac) {
  nic(id).filters.erase(mac);
}

bool Fabric::nic_up(NicId id) const { return nic(id).up; }
SegmentId Fabric::segment_of(NicId id) const { return nic(id).segment; }
MacAddress Fabric::mac_of(NicId id) const { return nic(id).mac; }
int Fabric::component_of(NicId id) const { return nic(id).component; }

void Fabric::set_partition(SegmentId seg,
                           const std::vector<std::vector<NicId>>& groups) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  const auto& members = segments_[static_cast<std::size_t>(seg)].nics;
  std::set<NicId> seen;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NicId id : groups[g]) {
      WAM_EXPECTS(nic(id).segment == seg);
      WAM_EXPECTS(seen.insert(id).second);
      nic(id).component = static_cast<int>(g);
    }
  }
  WAM_EXPECTS(seen.size() == members.size());
  log_.info("segment %d partitioned into %zu components", seg, groups.size());
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultInjected, obs_scope_,
               {{"kind", "partition"},
                {"segment", std::to_string(seg)},
                {"components", std::to_string(groups.size())}});
  }
}

void Fabric::block_direction(NicId from, NicId to) {
  if (!blocked_.emplace(from, to).second) return;
  log_.info("directional block: nic %d -> nic %d", from, to);
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultInjected, obs_scope_,
               {{"kind", "directional_block"},
                {"from", std::to_string(from)},
                {"to", std::to_string(to)}});
  }
}

void Fabric::unblock_direction(NicId from, NicId to) {
  if (blocked_.erase({from, to}) == 0) return;
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultHealed, obs_scope_,
               {{"kind", "directional_unblock"},
                {"from", std::to_string(from)},
                {"to", std::to_string(to)}});
  }
}

void Fabric::clear_directional_blocks() {
  if (blocked_.empty()) return;
  blocked_.clear();
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultHealed, obs_scope_,
               {{"kind", "directional_clear"}});
  }
}

void Fabric::set_drop_probability(SegmentId seg, double p) {
  WAM_EXPECTS(p >= 0.0 && p < 1.0);
  auto& config = segment_config(seg);
  if (config.drop_probability == p) return;
  config.drop_probability = p;
  log_.info("segment %d loss probability now %g", seg, p);
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(),
               p > 0.0 ? obs::EventType::kFaultInjected
                       : obs::EventType::kFaultHealed,
               obs_scope_,
               {{"kind", p > 0.0 ? "loss_burst" : "loss_end"},
                {"segment", std::to_string(seg)},
                {"p", std::to_string(p)}});
  }
}

void Fabric::merge_segment(SegmentId seg) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  for (NicId id : segments_[static_cast<std::size_t>(seg)].nics) {
    nic(id).component = 0;
  }
  log_.info("segment %d merged", seg);
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultHealed, obs_scope_,
               {{"kind", "merge"}, {"segment", std::to_string(seg)}});
  }
}

void Fabric::deliver_now(NicId to, Frame frame) {
  const auto& n = nic(to);
  auto& c = ctrs(to);
  if (!n.up) {
    ++c.dropped_nic_down;
    return;
  }
  ++c.frames_delivered;
  if (record_deliveries_) {
    journal_[static_cast<std::size_t>(to)].push_back(
        DeliveryRecord{sched_of(to).now(), frame_digest(frame)});
  }
  n.deliver(frame, to);
}

void Fabric::schedule_delivery(NicId from, NicId to, sim::TimePoint when,
                               util::SmallFn fn) {
  if (shards_ == nullptr) {
    sched_.schedule_at(when, std::move(fn));
    return;
  }
  const int sf = nic_shard_[static_cast<std::size_t>(from)];
  const int st = nic_shard_[static_cast<std::size_t>(to)];
  if (sf == st) {
    shards_->shard(sf).schedule_at(when, std::move(fn));
    return;
  }
  shards_->post(sf, st, when, std::move(fn));
}

sim::TimePoint Fabric::arrival(const Segment& seg, NicId from) {
  sim::Duration latency = seg.config.latency;
  if (seg.config.jitter > sim::kZero) {
    latency += tx_rng(from).duration_range(sim::kZero, seg.config.jitter);
  }
  return sched_of(from).now() + latency;
}

template <class Fn>
void Fabric::route(NicId from, const Frame& frame, FabricCounters& c,
                   Fn&& to) {
  const auto& sender = nic(from);
  const auto& seg = segments_[static_cast<std::size_t>(sender.segment)];
  ++c.frames_sent;
  if (tap_) tap_(sender.segment, frame);
  if (seg.config.drop_probability > 0 &&
      tx_rng(from).chance(seg.config.drop_probability)) {
    ++c.dropped_random;
    return;
  }
  auto reachable = [&](NicId id, const Nic& target) {
    if (!target.up) {
      ++c.dropped_nic_down;
    } else if (target.component != sender.component) {
      ++c.dropped_partition;
    } else if (!blocked_.empty() && blocked_.count({from, id}) > 0) {
      ++c.dropped_directional;
    } else {
      return true;
    }
    return false;
  };

  if (frame.dst.is_group()) {
    // Broadcast goes to everyone; multicast only to NICs with the filter.
    for (NicId id : seg.nics) {
      if (id == from) continue;
      const auto& target = nic(id);
      if (!frame.dst.is_broadcast() && target.filters.count(frame.dst) == 0) {
        continue;
      }
      if (reachable(id, target)) to(seg, id);
    }
    return;
  }
  for (NicId id : seg.nics) {
    const auto& target = nic(id);
    if (target.mac != frame.dst) continue;
    if (reachable(id, target)) to(seg, id);
    return;
  }
  ++c.dropped_no_target;
}

void Fabric::send(NicId from, Frame frame) {
  auto& c = ctrs(from);
  if (!nic(from).up) {
    ++c.dropped_nic_down;
    return;
  }
  route(from, frame, c, [&](const Segment& seg, NicId to) {
    schedule_delivery(from, to, arrival(seg, from),
                      [this, to, frame]() mutable {
                        deliver_now(to, std::move(frame));
                      });
  });
}

void Fabric::send_batch(NicId from, std::vector<Frame>&& frames) {
  if (frames.empty()) return;
  auto& c = ctrs(from);
  if (!nic(from).up) {
    c.dropped_nic_down += frames.size();
    return;
  }

  // Phase 1 routes each frame as send() does (same counter bumps, same
  // RNG draws in the same order) but records the computed arrival instead
  // of scheduling an event. Shard threads send concurrently, so the list
  // is per thread; it keeps its capacity from one batch to the next.
  struct Pending {
    NicId to;
    sim::TimePoint when;
    std::uint32_t order;  // draw order; stands in for the scheduler seq
    std::uint32_t frame;
  };
  thread_local std::vector<Pending> pending;
  pending.clear();
  std::uint32_t order = 0;
  for (std::uint32_t fi = 0; fi < frames.size(); ++fi) {
    route(from, frames[fi], c, [&](const Segment& seg, NicId to) {
      pending.push_back(Pending{to, arrival(seg, from), order++, fi});
    });
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              if (a.to != b.to) return a.to < b.to;
              if (a.when != b.when) return a.when < b.when;
              return a.order < b.order;
            });

  // Phase 2, in ascending receiver order: one event per receiver at its
  // batch's LAST arrival, handing frames over in (arrival, draw order) —
  // the (time, seq) order the scheduler would have delivered the
  // per-frame events in. The event runs on the receiver's shard;
  // deliver_now re-checks liveness per frame, since the receiver may go
  // down from within an earlier frame's handler, exactly as it could
  // between two unbatched delivery events. A unicast frame has one
  // receiver and is moved; a group frame is shared by reference count.
  auto take = [&frames](const Pending& p) {
    Frame& f = frames[p.frame];
    return f.dst.is_group() ? Frame(f) : std::move(f);
  };
  for (std::size_t lo = 0; lo < pending.size();) {
    const NicId to = pending[lo].to;
    std::size_t hi = lo + 1;
    while (hi < pending.size() && pending[hi].to == to) ++hi;
    const sim::TimePoint when = pending[hi - 1].when;
    if (hi - lo == 1) {  // send()'s single-frame event: no batch vector
      schedule_delivery(from, to, when,
                        [this, to, frame = take(pending[lo])]() mutable {
                          deliver_now(to, std::move(frame));
                        });
    } else {
      std::vector<Frame> batch;
      batch.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) batch.push_back(take(pending[i]));
      schedule_delivery(from, to, when,
                        [this, to, batch = std::move(batch)]() mutable {
                          for (Frame& f : batch) deliver_now(to, std::move(f));
                        });
    }
    lo = hi;
  }
}

}  // namespace wam::net
