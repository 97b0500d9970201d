#include "wackamole/health.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wam::wackamole {

UdpServiceCheck::UdpServiceCheck(net::Host& host, net::Ipv4Address service_ip,
                                 std::uint16_t service_port,
                                 std::uint16_t probe_port)
    : host_(host),
      service_ip_(service_ip),
      service_port_(service_port),
      probe_port_(probe_port) {
  host_.open_udp(
      probe_port_,
      [this](const net::Host::UdpContext&, const util::SharedBytes& reply) {
        // Echo-style services return the request payload (possibly behind
        // a header, e.g. EchoServer's hostname prefix), so the current
        // round's tag must appear as the reply's suffix. A reply from an
        // earlier round is stale and must not satisfy this one.
        if (!awaiting_ || reply.size() < probe_.size() ||
            !std::equal(probe_.begin(), probe_.end(),
                        reply.end() - static_cast<std::ptrdiff_t>(
                                          probe_.size()))) {
          return;
        }
        reply_seen_ = true;
        awaiting_ = false;
      });
}

UdpServiceCheck::~UdpServiceCheck() { host_.close_udp(probe_port_); }

std::string UdpServiceCheck::name() const {
  return "udp:" + service_ip_.to_string() + ":" +
         std::to_string(service_port_);
}

void UdpServiceCheck::run() {
  // Evaluate the previous round: if we were still waiting, it failed.
  if (awaiting_) reply_seen_ = false;
  awaiting_ = true;
  ++seq_;
  util::ByteWriter w(1 + 1 + 4);
  w.u8('h');
  w.u8('c');
  w.u32(seq_);
  probe_ = w.take();
  host_.send_udp_from(host_.primary_ip(0), service_ip_, service_port_,
                      probe_port_, probe_);
}

HealthMonitor::HealthMonitor(sim::Scheduler& sched, Daemon& daemon,
                             HealthMonitorConfig config, sim::Log* log)
    : sched_(sched),
      daemon_(daemon),
      config_(config),
      log_(log, "health/" + daemon.config().group) {
  WAM_EXPECTS(config_.fail_threshold >= 1);
  WAM_EXPECTS(config_.recover_threshold >= 1);
  WAM_EXPECTS(config_.check_interval > sim::kZero);
}

void HealthMonitor::add_check(std::unique_ptr<HealthCheck> check) {
  WAM_EXPECTS(check != nullptr);
  checks_.push_back(std::move(check));
}

void HealthMonitor::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void HealthMonitor::stop() {
  if (!running_) return;
  running_ = false;
  timer_.cancel();
}

void HealthMonitor::tick() {
  if (!running_) return;
  bool all_healthy = true;
  for (auto& check : checks_) {
    check->run();
    if (!check->healthy()) {
      all_healthy = false;
      last_failed_ = check->name();
    }
  }

  if (all_healthy) {
    failures_ = 0;
    ++successes_;
    if (withdrawn_ && successes_ >= config_.recover_threshold) {
      withdrawn_ = false;
      ++rejoins_;
      log_.info("service healthy again: rejoining the cluster");
      if (!daemon_.running()) daemon_.start();
    }
  } else {
    successes_ = 0;
    ++failures_;
    if (!withdrawn_ && failures_ >= config_.fail_threshold) {
      withdrawn_ = true;
      ++withdrawals_;
      log_.warn("check '%s' failing (%d consecutive): withdrawing from the "
                "cluster so peers take over the addresses",
                last_failed_, failures_);
      if (daemon_.running()) daemon_.graceful_shutdown();
    }
  }
  timer_ = sched_.schedule(config_.check_interval, [this] { tick(); });
}

}  // namespace wam::wackamole
