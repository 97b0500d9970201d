#include "baselines/hsrp.hpp"

#include "util/bytes.hpp"

namespace wam::baselines {

const char* hsrp_state_name(HsrpState s) {
  switch (s) {
    case HsrpState::kInit: return "INIT";
    case HsrpState::kListen: return "LISTEN";
    case HsrpState::kStandby: return "STANDBY";
    case HsrpState::kActive: return "ACTIVE";
  }
  return "?";
}

HsrpRouter::HsrpRouter(net::Host& host, HsrpConfig config, sim::Log* log)
    : host_(host),
      config_(std::move(config)),
      log_(log, "hsrp/" + host.name()) {}

void HsrpRouter::start() {
  if (running_) return;
  running_ = true;
  host_.open_udp(config_.port,
                 [this](const net::Host::UdpContext& ctx,
                        const util::SharedBytes& payload) { on_packet(ctx, payload); });
  state_ = HsrpState::kListen;
  arm_active_timer();
  arm_standby_timer();
  hello_tick();
}

void HsrpRouter::stop() {
  if (!running_) return;
  running_ = false;
  hello_timer_.cancel();
  active_timer_.cancel();
  standby_timer_.cancel();
  host_.close_udp(config_.port);
  if (state_ == HsrpState::kActive) {
    for (const auto& vip : config_.vips) {
      host_.remove_alias(config_.ifindex, vip);
    }
  }
  state_ = HsrpState::kInit;
}

bool HsrpRouter::beats(std::uint8_t peer_priority,
                       std::uint32_t peer_ip) const {
  auto my_ip = host_.primary_ip(config_.ifindex).value();
  if (config_.priority != peer_priority) {
    return config_.priority > peer_priority;
  }
  return my_ip > peer_ip;
}

void HsrpRouter::hello_tick() {
  if (!running_) return;
  // Hellos are sent from the speaking states (Standby and Active).
  if (state_ == HsrpState::kStandby || state_ == HsrpState::kActive) {
    util::ByteWriter w(1 + 1 + 1 + 4);
    w.u8(config_.group);
    w.u8(static_cast<std::uint8_t>(state_));
    w.u8(config_.priority);
    w.u32(host_.primary_ip(config_.ifindex).value());
    host_.send_udp_broadcast(config_.ifindex, config_.port, config_.port,
                             w.take());
  }
  hello_timer_ = host_.scheduler().schedule(config_.hello_interval,
                                            [this] { hello_tick(); });
}

void HsrpRouter::arm_active_timer() {
  active_timer_.cancel();
  active_timer_ = host_.scheduler().schedule(config_.hold_time,
                                             [this] { active_timeout(); });
}

void HsrpRouter::arm_standby_timer() {
  standby_timer_.cancel();
  standby_timer_ = host_.scheduler().schedule(config_.hold_time,
                                              [this] { standby_timeout(); });
}

void HsrpRouter::active_timeout() {
  if (!running_) return;
  if (state_ == HsrpState::kStandby) {
    become_active();
  } else if (state_ == HsrpState::kListen) {
    become_standby();
    arm_active_timer();  // keep watching for an active router
  }
}

void HsrpRouter::standby_timeout() {
  if (!running_) return;
  if (state_ == HsrpState::kListen) {
    become_standby();
  }
}

void HsrpRouter::become_standby() {
  state_ = HsrpState::kStandby;
  log_.info("-> STANDBY (group %u)", config_.group);
}

void HsrpRouter::become_active() {
  state_ = HsrpState::kActive;
  active_timer_.cancel();
  log_.info("-> ACTIVE (group %u)", config_.group);
  for (const auto& vip : config_.vips) {
    host_.add_alias(config_.ifindex, vip);
    host_.send_gratuitous_arp(config_.ifindex, vip);
  }
}

void HsrpRouter::resign_active() {
  for (const auto& vip : config_.vips) {
    host_.remove_alias(config_.ifindex, vip);
  }
  state_ = HsrpState::kListen;
  log_.info("resigned ACTIVE (group %u)", config_.group);
  arm_active_timer();
  arm_standby_timer();
}

void HsrpRouter::on_packet(const net::Host::UdpContext&,
                           const util::SharedBytes& payload) {
  if (!running_) return;
  util::ByteReader r(payload);
  Hello hello{};
  try {
    hello.group = r.u8();
    hello.state = r.u8();
    hello.priority = r.u8();
    hello.ip = r.u32();
  } catch (const util::DecodeError&) {
    return;
  }
  if (hello.group != config_.group) return;

  auto peer_state = static_cast<HsrpState>(hello.state);
  if (peer_state == HsrpState::kActive) {
    if (state_ == HsrpState::kActive) {
      if (!beats(hello.priority, hello.ip)) resign_active();
    } else {
      arm_active_timer();
    }
  } else if (peer_state == HsrpState::kStandby) {
    if (state_ == HsrpState::kStandby) {
      if (!beats(hello.priority, hello.ip)) {
        state_ = HsrpState::kListen;
        log_.info("deferring STANDBY to better peer");
        arm_standby_timer();
      }
    } else if (state_ != HsrpState::kActive) {
      arm_standby_timer();
    }
  }
}

}  // namespace wam::baselines
