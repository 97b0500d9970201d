#include "baselines/vrrp.hpp"

#include "util/bytes.hpp"

namespace wam::baselines {

const char* vrrp_state_name(VrrpState s) {
  switch (s) {
    case VrrpState::kInit: return "INIT";
    case VrrpState::kBackup: return "BACKUP";
    case VrrpState::kMaster: return "MASTER";
  }
  return "?";
}

VrrpRouter::VrrpRouter(net::Host& host, VrrpConfig config, sim::Log* log)
    : host_(host),
      config_(std::move(config)),
      log_(log, "vrrp/" + host.name()) {}

sim::Duration VrrpRouter::master_down_interval() const {
  // 3 * advertisement_interval + skew_time, skew = (256 - prio)/256 s.
  auto skew = sim::Duration(
      sim::seconds(1.0).count() * (256 - config_.priority) / 256);
  return config_.advertisement_interval * 3 + skew;
}

void VrrpRouter::start() {
  if (running_) return;
  running_ = true;
  host_.open_udp(config_.port,
                 [this](const net::Host::UdpContext& ctx,
                        const util::SharedBytes& payload) { on_packet(ctx, payload); });
  if (config_.priority == 255) {
    become_master();
  } else {
    become_backup();
  }
}

void VrrpRouter::stop() {
  if (!running_) return;
  running_ = false;
  advert_timer_.cancel();
  master_down_timer_.cancel();
  host_.close_udp(config_.port);
  if (state_ == VrrpState::kMaster) {
    for (const auto& vip : config_.vips) {
      host_.remove_alias(config_.ifindex, vip);
    }
  }
  state_ = VrrpState::kInit;
}

void VrrpRouter::become_master() {
  ++transitions_;
  state_ = VrrpState::kMaster;
  master_down_timer_.cancel();
  log_.info("-> MASTER (vrid %u)", config_.vrid);
  for (const auto& vip : config_.vips) {
    host_.add_alias(config_.ifindex, vip);
    host_.send_gratuitous_arp(config_.ifindex, vip);
  }
  send_advertisement();
}

void VrrpRouter::become_backup() {
  if (state_ == VrrpState::kMaster) {
    for (const auto& vip : config_.vips) {
      host_.remove_alias(config_.ifindex, vip);
    }
  }
  ++transitions_;
  state_ = VrrpState::kBackup;
  advert_timer_.cancel();
  log_.info("-> BACKUP (vrid %u)", config_.vrid);
  arm_master_down_timer();
}

void VrrpRouter::send_advertisement() {
  if (!running_ || state_ != VrrpState::kMaster) return;
  util::ByteWriter w(2);
  w.u8(config_.vrid);
  w.u8(config_.priority);
  host_.send_udp_broadcast(config_.ifindex, config_.port, config_.port,
                           w.take());
  advert_timer_ = host_.scheduler().schedule(
      config_.advertisement_interval, [this] { send_advertisement(); });
}

void VrrpRouter::arm_master_down_timer() {
  master_down_timer_.cancel();
  master_down_timer_ = host_.scheduler().schedule(
      master_down_interval(), [this] { master_down(); });
}

void VrrpRouter::master_down() {
  if (!running_ || state_ != VrrpState::kBackup) return;
  log_.info("master down timer expired");
  become_master();
}

void VrrpRouter::on_packet(const net::Host::UdpContext&,
                           const util::SharedBytes& payload) {
  if (!running_) return;
  util::ByteReader r(payload);
  std::uint8_t vrid, priority;
  try {
    vrid = r.u8();
    priority = r.u8();
  } catch (const util::DecodeError&) {
    return;
  }
  if (vrid != config_.vrid) return;

  switch (state_) {
    case VrrpState::kBackup:
      if (priority >= config_.priority || !config_.preempt) {
        arm_master_down_timer();
      }
      // Lower-priority master with preemption on: let the timer run out
      // quickly? RFC: preempting backup lets Master_Down fire naturally.
      break;
    case VrrpState::kMaster:
      if (priority > config_.priority) {
        become_backup();
      }
      // Equal priority: higher primary IP wins per RFC; we keep the
      // incumbent for simplicity (configs in this repo use distinct
      // priorities).
      break;
    case VrrpState::kInit:
      break;
  }
}

}  // namespace wam::baselines
