#include "baselines/fake.hpp"

namespace wam::baselines {

FakeResponder::FakeResponder(net::Host& host, std::uint16_t port)
    : host_(host), port_(port) {}

void FakeResponder::start() {
  if (running_) return;
  running_ = host_.open_udp(
      port_, [this](const net::Host::UdpContext& ctx, const util::SharedBytes& p) {
        host_.send_udp_from(ctx.dst_ip, ctx.src_ip, ctx.src_port,
                            ctx.dst_port, p.to_bytes());
      });
}

void FakeResponder::stop() {
  if (!running_) return;
  host_.close_udp(port_);
  running_ = false;
}

FakeBackup::FakeBackup(net::Host& host, FakeConfig config, sim::Log* log)
    : host_(host),
      config_(std::move(config)),
      log_(log, "fake/" + host.name()) {}

void FakeBackup::start() {
  if (running_) return;
  running_ = true;
  host_.open_udp(config_.port, [this](const net::Host::UdpContext&,
                                      const util::SharedBytes&) {
    reply_seen_ = true;
  });
  probe_tick();
}

void FakeBackup::stop() {
  if (!running_) return;
  running_ = false;
  timer_.cancel();
  host_.close_udp(config_.port);
  if (holding_) hand_back();
}

void FakeBackup::probe_tick() {
  if (!running_) return;
  // Evaluate the previous probe's outcome.
  if (reply_seen_) {
    misses_ = 0;
    if (holding_ && config_.release_on_return) {
      log_.info("main server is back: releasing");
      hand_back();
    }
  } else {
    ++misses_;
    if (!holding_ && misses_ >= config_.miss_threshold) {
      take_over();
    }
  }
  reply_seen_ = false;
  host_.send_udp(config_.main_ip, config_.port, config_.port, {'f', 'k'});
  timer_ = host_.scheduler().schedule(config_.probe_interval,
                                      [this] { probe_tick(); });
}

void FakeBackup::take_over() {
  holding_ = true;
  log_.info("main server unresponsive (%d misses): taking over", misses_);
  for (const auto& vip : config_.vips) {
    host_.add_alias(config_.ifindex, vip);
    host_.send_gratuitous_arp(config_.ifindex, vip);
  }
}

void FakeBackup::hand_back() {
  holding_ = false;
  for (const auto& vip : config_.vips) {
    host_.remove_alias(config_.ifindex, vip);
  }
}

}  // namespace wam::baselines
