#include "apps/router_scenario.hpp"

#include "util/assert.hpp"

namespace wam::apps {

/// Models §5.2's naive deployment: on takeover the router's dynamic
/// routing tables are cold, so forwarding stays off for the convergence
/// delay ("usually takes around 30 seconds").
class RouterScenario::ConvergingIpManager : public wackamole::SimIpManager {
 public:
  ConvergingIpManager(net::Host& host, sim::Duration delay)
      : SimIpManager(host), delay_(delay) {}

  wackamole::OsOpResult acquire(const wackamole::VipGroup& group) override {
    auto result = SimIpManager::acquire(group);
    if (!result.ok() || delay_ == sim::kZero) return result;
    host().enable_forwarding(false);
    ++generation_;
    auto gen = generation_;
    host().scheduler().schedule(delay_, [this, gen] {
      // A release/re-acquire in between restarts the convergence clock.
      if (gen == generation_) host().enable_forwarding(true);
    });
    return result;
  }

 private:
  sim::Duration delay_;
  std::uint64_t generation_ = 0;
};

RouterScenario::RouterScenario(RouterScenarioOptions options)
    : fabric(sched, &log, options.seed), options_(std::move(options)) {
  WAM_EXPECTS(options_.num_routers >= 2);
  fabric.bind_observability(obs, "net");
  external_seg_ = fabric.add_segment();
  web_seg_ = fabric.add_segment();
  db_seg_ = fabric.add_segment();

  // The indivisible VIP group: the router's identity on all three networks.
  wackamole::VipGroup group;
  group.name = "virtual-router";
  group.addresses = {{external_vip(), 0}, {web_vip(), 1}, {db_vip(), 2}};

  for (int i = 0; i < options_.num_routers; ++i) {
    auto r = std::make_unique<net::Host>(sched, fabric,
                                         "router" + std::to_string(i + 1),
                                         &log);
    // Interface order: 0 = external, 1 = web, 2 = db.
    r->add_interface(external_seg_,
                     net::Ipv4Address(203, 0, 113,
                                      static_cast<std::uint8_t>(2 + i)),
                     24);
    r->add_interface(web_seg_,
                     net::Ipv4Address(198, 51, 100,
                                      static_cast<std::uint8_t>(102 + i)),
                     24);
    r->add_interface(db_seg_,
                     net::Ipv4Address(192, 168, 0,
                                      static_cast<std::uint8_t>(2 + i)),
                     24);
    r->enable_forwarding(true);

    // GCS runs on the web-side interface (the paper notes Spread may use a
    // separate NIC from the managed addresses).
    auto gcsd = std::make_unique<gcs::Daemon>(*r, options_.gcs, &log, 1);

    std::unique_ptr<wackamole::SimIpManager> ipmgr;
    if (options_.routing_convergence_delay == sim::kZero) {
      ipmgr = std::make_unique<wackamole::SimIpManager>(*r);
    } else {
      ipmgr = std::make_unique<ConvergingIpManager>(
          *r, options_.routing_convergence_delay);
    }

    wackamole::Config config;
    config.vip_groups = {group};
    config.balance_timeout = options_.balance_timeout;
    config.maturity_timeout = sim::kZero;
    config.start_mature = true;
    config.arp_share_interval = options_.arp_share_interval;
    auto wamd = std::make_unique<wackamole::Daemon>(sched, config, *gcsd,
                                                    *ipmgr, &log);
    // Share the union of this router's ARP knowledge (all interfaces share
    // one cache in the simulated host) so the peer knows whom to spoof.
    net::Host* rp = r.get();
    wamd->set_arp_share_source([rp] {
      std::vector<std::uint32_t> ips;
      for (const auto& ip : rp->arp_cache().known_ips()) {
        ips.push_back(ip.value());
      }
      return ips;
    });

    const std::string suffix = "/s" + std::to_string(i + 1);
    r->bind_observability(obs, "net" + suffix);
    gcsd->bind_observability(obs, "gcs" + suffix);
    ipmgr->bind_observability(obs, "ip" + suffix);
    wamd->bind_observability(obs, "wam" + suffix);

    routers_.push_back(std::move(r));
    gcs_.push_back(std::move(gcsd));
    ipmgrs_.push_back(std::move(ipmgr));
    wams_.push_back(std::move(wamd));
  }

  internet_ = std::make_unique<net::Host>(sched, fabric, "internet", &log);
  internet_->add_interface(external_seg_, net::Ipv4Address(203, 0, 113, 50),
                           24);
  internet_->set_default_gateway(external_vip());

  web_server_ = std::make_unique<net::Host>(sched, fabric, "webserver", &log);
  web_server_->add_interface(web_seg_, net::Ipv4Address(198, 51, 100, 10), 24);
  web_server_->set_default_gateway(web_vip());
  web_echo_ = std::make_unique<EchoServer>(*web_server_);

  db_server_ = std::make_unique<net::Host>(sched, fabric, "dbserver", &log);
  db_server_->add_interface(db_seg_, net::Ipv4Address(192, 168, 0, 20), 24);
  db_server_->set_default_gateway(db_vip());
  db_echo_ = std::make_unique<EchoServer>(*db_server_);
}

void RouterScenario::start() {
  for (auto& d : gcs_) d->start();
  for (auto& w : wams_) w->start();
  web_echo_->start();
  db_echo_->start();
}

void RouterScenario::start_probe() {
  auto config = options_.probe;
  config.target = net::Ipv4Address(198, 51, 100, 10);
  probe_ = std::make_unique<ProbeClient>(*internet_, config);
  probe_->start();
}

void RouterScenario::fail_router(int i) {
  auto& r = *routers_[static_cast<std::size_t>(i)];
  if (!r.is_up()) return;
  r.fail();
  obs.emit(sched.now(), obs::EventType::kFaultInjected, "scenario",
           {{"kind", "router_fail"}, {"router", "s" + std::to_string(i + 1)}});
}

void RouterScenario::recover_router(int i) {
  auto& r = *routers_[static_cast<std::size_t>(i)];
  if (r.is_up()) return;
  r.recover();
  obs.emit(sched.now(), obs::EventType::kFaultHealed, "scenario",
           {{"kind", "router_recover"},
            {"router", "s" + std::to_string(i + 1)}});
}

void RouterScenario::graceful_leave(int i) {
  auto& w = *wams_[static_cast<std::size_t>(i)];
  if (!w.running() || !w.connected()) return;
  w.graceful_shutdown();
}

void RouterScenario::rejoin(int i) {
  auto& w = *wams_[static_cast<std::size_t>(i)];
  if (w.running()) return;
  w.start();
  obs.emit(sched.now(), obs::EventType::kFaultHealed, "scenario",
           {{"kind", "rejoin"}, {"router", "s" + std::to_string(i + 1)}});
}

void RouterScenario::set_loss(double p) {
  fabric.set_drop_probability(external_seg_, p);
  fabric.set_drop_probability(web_seg_, p);
  fabric.set_drop_probability(db_seg_, p);
}

int RouterScenario::active_router() const {
  // Only reachable routers count: a failed router legitimately keeps its
  // aliases inside its own isolated component (Property 1 is per maximal
  // connected component).
  int active = -1;
  for (int i = 0; i < options_.num_routers; ++i) {
    if (!routers_[static_cast<std::size_t>(i)]->is_up()) continue;
    if (routers_[static_cast<std::size_t>(i)]->owns_ip(external_vip())) {
      if (active >= 0) return -2;
      active = i;
    }
  }
  return active;
}

bool RouterScenario::holds_whole_group(int i) const {
  const auto& r = *routers_[static_cast<std::size_t>(i)];
  return r.owns_ip(external_vip()) && r.owns_ip(web_vip()) &&
         r.owns_ip(db_vip());
}

bool RouterScenario::holds_nothing(int i) const {
  const auto& r = *routers_[static_cast<std::size_t>(i)];
  return !r.owns_ip(external_vip()) && !r.owns_ip(web_vip()) &&
         !r.owns_ip(db_vip());
}

}  // namespace wam::apps
