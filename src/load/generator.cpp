#include "load/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/bytes.hpp"

namespace wam::load {

namespace {

/// Largest lambda handed to one Knuth draw: exp(-500) ≈ 7e-218 is still a
/// perfectly normal double, far from the ~1e-308 underflow cliff.
constexpr double kPoissonChunk = 500.0;

std::uint32_t knuth_poisson(sim::Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  std::uint32_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

}  // namespace

std::uint32_t poisson_draw(sim::Rng& rng, double lambda) {
  WAM_EXPECTS(lambda >= 0.0);
  std::uint64_t total = 0;
  while (lambda > kPoissonChunk) {
    total += knuth_poisson(rng, kPoissonChunk);
    lambda -= kPoissonChunk;
  }
  total += knuth_poisson(rng, lambda);
  return static_cast<std::uint32_t>(total);
}

LoadGenerator::LoadGenerator(net::Host& host, LoadOptions options)
    : host_(host),
      opt_(std::move(options)),
      rng_(opt_.seed),
      zipf_(static_cast<std::uint32_t>(
                std::max<std::size_t>(opt_.vips.size(), 1)),
            opt_.zipf_skew),
      stats_(opt_.stats_bucket) {
  WAM_EXPECTS(!opt_.vips.empty());
  WAM_EXPECTS(opt_.flows_per_second > 0);
  WAM_EXPECTS(opt_.tick > sim::kZero);
  WAM_EXPECTS(opt_.long_flow_requests >= 1);
  // Round to the nearest whole number of ticks: plain division truncates,
  // silently shortening the long-flow cadence for any non-divisible
  // interval (e.g. 250 ms at a 100 ms tick ran every 200 ms).
  WAM_EXPECTS(opt_.long_flow_interval >= opt_.tick);
  const auto ticks = (opt_.long_flow_interval + opt_.tick / 2) / opt_.tick;
  wheel_.resize(static_cast<std::size_t>(
      std::max<std::int64_t>(static_cast<std::int64_t>(ticks), 1)));
}

void LoadGenerator::start() {
  if (running_) return;
  running_ = host_.open_udp(
      opt_.local_port,
      [this](const net::Host::UdpContext&, const util::SharedBytes& payload) {
        on_reply(payload);
      });
  WAM_EXPECTS(running_);
  timer_ = host_.scheduler().schedule(opt_.tick, [this] { tick(); });
}

void LoadGenerator::stop() {
  if (!running_) return;
  timer_.cancel();
  host_.close_udp(opt_.local_port);
  running_ = false;
}

apps::TrafficReport LoadGenerator::report() const {
  apps::TrafficReport r;
  r.requests_sent = stats_.offered();
  r.responses = stats_.answered();
  // Unanswered includes requests still in flight at report time — an
  // open-loop client that never heard back was not served.
  r.lost = r.requests_sent > r.responses ? r.requests_sent - r.responses : 0;
  r.retries = stats_.retries();
  r.longest_gap = stats_.longest_response_gap();
  return r;
}

std::uint32_t LoadGenerator::draw_arrivals() {
  const double lambda =
      opt_.flows_per_second * sim::to_seconds(opt_.tick);
  if (!opt_.poisson) {
    arrival_carry_ += lambda;
    auto n = static_cast<std::uint32_t>(arrival_carry_);
    arrival_carry_ -= n;
    return n;
  }
  return poisson_draw(rng_, lambda);
}

void LoadGenerator::tick() {
  if (!running_) return;
  const sim::TimePoint now = host_.scheduler().now();

  // 1. Expire timed-out requests from the FIFO front: retry or lose.
  while (!out_.empty() && out_.front().sent + opt_.request_timeout <= now) {
    Outstanding expired = out_.front();
    out_.pop_front();
    ++base_id_;
    if (expired.answered) continue;
    if (expired.attempt < opt_.max_retries) {
      stats_.on_retry(now);
      queue_request(expired.flow_slot,
                    static_cast<std::uint8_t>(expired.attempt + 1),
                    expired.first_sent);
    } else {
      stats_.on_lost(now);
      resolve(expired.flow_slot);
    }
  }

  if (!draining_) {
    // 2. Long-lived flows due this tick issue their next request.
    auto& due = wheel_[static_cast<std::size_t>(tick_index_ % wheel_.size())];
    std::vector<std::uint32_t> due_now;
    due_now.swap(due);  // re-pushes this tick land W ticks out, same bucket
    for (std::uint32_t slot : due_now) {
      Flow& f = flows_[slot];
      --f.remaining;
      ++f.pending;
      queue_request(slot, 0, now);
      if (f.remaining > 0) due.push_back(slot);
    }

    // 3. Open-loop arrivals.
    const std::uint32_t arrivals = draw_arrivals();
    for (std::uint32_t i = 0; i < arrivals; ++i) start_flow();
  }

  // 4. One batched injection for everything this tick produced.
  if (!burst_.empty()) {
    host_.send_udp_burst(burst_);
    burst_.clear();  // keeps the capacity for the next tick
  }

  ++tick_index_;
  if (draining_ && out_.empty()) {
    stop();
    return;
  }
  timer_ = host_.scheduler().schedule(opt_.tick, [this] { tick(); });
}

void LoadGenerator::drain() {
  if (!running_ || draining_) return;
  draining_ = true;
  for (auto& bucket : wheel_) bucket.clear();
  // Abandon unsent long-flow requests; slots waiting only on the wheel
  // free immediately, the rest free as their in-flight requests resolve.
  for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
    Flow& f = flows_[slot];
    if (f.remaining > 0) {
      f.remaining = 0;
      if (f.pending == 0) free_.push_back(slot);
    }
  }
}

void LoadGenerator::start_flow() {
  std::uint32_t slot = 0;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  }
  Flow& f = flows_[slot];
  f.vip = zipf_.sample(rng_);
  const bool long_lived = rng_.chance(opt_.long_flow_fraction);
  f.remaining = static_cast<std::uint16_t>(
      long_lived ? opt_.long_flow_requests : 1);
  f.pending = 0;
  ++flows_started_;

  const sim::TimePoint now = host_.scheduler().now();
  --f.remaining;
  ++f.pending;
  queue_request(slot, 0, now);
  if (f.remaining > 0) {
    wheel_[static_cast<std::size_t>(tick_index_ % wheel_.size())].push_back(
        slot);
  }
}

void LoadGenerator::queue_request(std::uint32_t slot, std::uint8_t attempt,
                                  sim::TimePoint first_sent) {
  const sim::TimePoint now = host_.scheduler().now();
  const std::uint64_t id = base_id_ + out_.size();
  out_.push_back({first_sent, now, slot, attempt, false});
  if (attempt == 0) stats_.on_offered(now);

  util::ByteWriter w(8);
  w.u64(id);
  net::Host::UdpSend send;
  send.dst = opt_.vips[flows_[slot].vip];
  send.dst_port = opt_.server_port;
  send.src_port = opt_.local_port;
  send.payload = w.take();
  burst_.push_back(std::move(send));
}

void LoadGenerator::on_reply(const util::SharedBytes& payload) {
  std::uint64_t id = 0;
  try {
    util::ByteReader r(payload);
    r.skip(r.u32());  // responding server's hostname
    id = r.u64();
  } catch (const util::DecodeError&) {
    return;  // not an echo reply to one of ours
  }
  if (id < base_id_ || id >= base_id_ + out_.size()) return;  // expired
  Outstanding& e = out_[static_cast<std::size_t>(id - base_id_)];
  if (e.answered) return;  // duplicate
  e.answered = true;
  const sim::TimePoint now = host_.scheduler().now();
  stats_.on_response(now, now - e.first_sent);
  resolve(e.flow_slot);
}

void LoadGenerator::resolve(std::uint32_t slot) {
  Flow& f = flows_[slot];
  --f.pending;
  if (f.pending == 0 && f.remaining == 0) {
    ++flows_completed_;
    free_.push_back(slot);
  }
}

}  // namespace wam::load
