#include "wackamole/ip_manager.hpp"

namespace wam::wackamole {

const char* os_op_status_name(OsOpStatus s) {
  switch (s) {
    case OsOpStatus::kOk:
      return "ok";
    case OsOpStatus::kFailed:
      return "failed";
    case OsOpStatus::kConflict:
      return "conflict";
  }
  return "?";
}

void SimIpManager::set_router(int ifindex, net::Ipv4Address router_ip) {
  routers_[ifindex] = router_ip;
}

void SimIpManager::bind_observability(obs::Observability& obs,
                                      std::string scope) {
  obs_ = &obs;
  obs_scope_ = obs.intern(scope);
  obs.registry.bind(held_gauge_, scope + "/held_groups");
  update_held_gauge();
}

void SimIpManager::update_held_gauge() {
  held_gauge_.set(static_cast<double>(held_.size()));
}

void SimIpManager::add_notify_target(net::Ipv4Address ip) {
  notify_targets_[ip] = host_.scheduler().now();
}

void SimIpManager::expire_notify_targets() {
  if (notify_ttl_ == sim::kZero) return;
  auto now = host_.scheduler().now();
  for (auto it = notify_targets_.begin(); it != notify_targets_.end();) {
    if (now - it->second > notify_ttl_) {
      it = notify_targets_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<net::Ipv4Address> SimIpManager::notify_targets() const {
  std::vector<net::Ipv4Address> out;
  out.reserve(notify_targets_.size());
  for (const auto& [ip, seen] : notify_targets_) out.push_back(ip);
  return out;
}

OsOpResult SimIpManager::acquire(const VipGroup& group) {
  // Duplicate-address detection: probe every address before binding any.
  // A live holder elsewhere in our network component means binding would
  // split client traffic between two MACs; report kConflict and let the
  // protocol's ResolveConflicts() ordering decide who backs off.
  if (!held_.contains(group.id)) {
    for (const auto& [ip, ifindex] : group.addresses) {
      if (host_.probe_address(ifindex, ip)) {
        if (obs_ != nullptr) {
          obs_->emit(host_.scheduler().now(), obs::EventType::kArpConflict,
                     obs_scope_,
                     {{"group", obs::Interned{group_name(group.id)}},
                      {"address", ip}});
        }
        return OsOpResult::conflict("address " + ip.to_string() +
                                    " already in use");
      }
    }
  }
  for (const auto& [ip, ifindex] : group.addresses) {
    host_.add_alias(ifindex, ip);
  }
  held_.insert(group.id);
  update_held_gauge();
  announce(group);
  return OsOpResult::success();
}

OsOpResult SimIpManager::release(const VipGroup& group) {
  for (const auto& [ip, ifindex] : group.addresses) {
    host_.remove_alias(ifindex, ip);
  }
  held_.erase(group.id);
  update_held_gauge();
  return OsOpResult::success();
}

OsOpResult SimIpManager::announce(const VipGroup& group) {
  if (!held_.contains(group.id)) return OsOpResult::success();
  expire_notify_targets();
  if (obs_ != nullptr) {
    obs_->emit(host_.scheduler().now(), obs::EventType::kArpAnnounce,
               obs_scope_,
               {{"group", obs::Interned{group_name(group.id)}},
                {"addresses", group.addresses.size()}});
  }
  for (const auto& [ip, ifindex] : group.addresses) {
    // Broadcast gratuitous ARP updates every host that already resolved the
    // address...
    host_.send_gratuitous_arp(ifindex, ip);
    // ...but the router may hold a stale entry that must flip NOW, and only
    // a unicast reply is guaranteed to (re)write its cache (§5.1).
    auto router = routers_.find(ifindex);
    if (router != routers_.end()) {
      host_.send_spoofed_reply(ifindex, ip, router->second);
    }
    // Router application: notify every host known to have resolved us.
    // Spoofing a target does NOT refresh its TTL clock — only an explicit
    // add_notify_target() re-registration does.
    for (const auto& [target, seen] : notify_targets_) {
      if (host_.network(ifindex).contains(target)) {
        host_.send_spoofed_reply(ifindex, ip, target);
      }
    }
  }
  return OsOpResult::success();
}

void FaultyIpManager::set_sticky_group(const std::string& group, bool on) {
  if (on) {
    sticky_groups_.insert(group);
  } else {
    sticky_groups_.erase(group);
  }
}

void FaultyIpManager::heal() {
  acquire_fail_p_ = 0.0;
  release_fail_p_ = 0.0;
  announce_fail_p_ = 0.0;
  sticky_all_ = false;
  arp_lose_ = false;
  sticky_groups_.clear();
  fail_after_ = 0;
}

bool FaultyIpManager::any_fault_armed() const {
  return acquire_fail_p_ > 0.0 || release_fail_p_ > 0.0 ||
         announce_fail_p_ > 0.0 || sticky_all_ || arp_lose_ ||
         !sticky_groups_.empty() || fail_after_ != 0;
}

OsOpResult FaultyIpManager::injected(const char* op, const std::string& group,
                                     const char* why) {
  ++failures_injected_;
  return OsOpResult::failed(std::string("injected ") + why + ": " + op + " " +
                            group);
}

OsOpResult FaultyIpManager::acquire(const VipGroup& group) {
  if (sticky(group.name)) return injected("acquire", group.name, "sticky");
  if (fail_after_ != 0 && --fail_after_ == 0) {
    return injected("acquire", group.name, "scheduled fault");
  }
  if (acquire_fail_p_ > 0.0 && rng_.chance(acquire_fail_p_)) {
    return injected("acquire", group.name, "random fault");
  }
  return inner_.acquire(group);
}

OsOpResult FaultyIpManager::release(const VipGroup& group) {
  if (release_fail_p_ > 0.0 && rng_.chance(release_fail_p_)) {
    return injected("release", group.name, "random fault");
  }
  return inner_.release(group);
}

OsOpResult FaultyIpManager::announce(const VipGroup& group) {
  // Sticky state fails announce too: the daemon leans on this to probe
  // enforcement health at quarantine cooldown without binding anything.
  if (sticky(group.name)) return injected("announce", group.name, "sticky");
  if (announce_fail_p_ > 0.0 && rng_.chance(announce_fail_p_)) {
    return injected("announce", group.name, "random fault");
  }
  if (arp_lose_) {
    // The syscall "succeeds"; the gratuitous ARPs just never hit the wire.
    ++failures_injected_;
    return OsOpResult::success();
  }
  return inner_.announce(group);
}

OsOpResult RecordingIpManager::next_result() {
  if (scripted_.empty()) return OsOpResult::success();
  auto r = std::move(scripted_.front());
  scripted_.pop_front();
  return r;
}

OsOpResult RecordingIpManager::acquire(const VipGroup& group) {
  auto r = next_result();
  ops_.push_back("acquire " + group.name +
                 (r.ok() ? "" : std::string(" [") +
                                    os_op_status_name(r.status) + "]"));
  if (r.ok()) held_.insert(group.id);
  return r;
}

OsOpResult RecordingIpManager::release(const VipGroup& group) {
  auto r = next_result();
  ops_.push_back("release " + group.name +
                 (r.ok() ? "" : std::string(" [") +
                                    os_op_status_name(r.status) + "]"));
  if (r.ok()) held_.erase(group.id);
  return r;
}

OsOpResult RecordingIpManager::announce(const VipGroup& group) {
  auto r = next_result();
  ops_.push_back("announce " + group.name +
                 (r.ok() ? "" : std::string(" [") +
                                    os_op_status_name(r.status) + "]"));
  return r;
}

}  // namespace wam::wackamole
