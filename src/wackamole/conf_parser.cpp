#include "wackamole/conf_parser.hpp"

#include <sstream>

#include "util/assert.hpp"
#include "util/conf.hpp"

namespace wam::wackamole {

namespace {

namespace conf = util::conf;

[[noreturn]] void fail(int line_no, const std::string& line,
                       const std::string& why) {
  throw ConfigError("wackamole.conf line " + std::to_string(line_no) + " ('" +
                    line + "'): " + why);
}

/// "if0: 10.0.0.100/32" -> (address, ifindex). The /prefix is optional.
std::pair<net::Ipv4Address, int> parse_vif(const std::string& token,
                                           int line_no,
                                           const std::string& line) {
  auto colon = token.find(':');
  if (colon == std::string::npos || token.rfind("if", 0) != 0) {
    fail(line_no, line, "expected ifN:a.b.c.d[/32], got '" + token + "'");
  }
  int ifindex = 0;
  try {
    ifindex = std::stoi(token.substr(2, colon - 2));
  } catch (const std::exception&) {
    fail(line_no, line, "bad interface index in '" + token + "'");
  }
  auto addr_text = token.substr(colon + 1);
  auto slash = addr_text.find('/');
  if (slash != std::string::npos) addr_text.resize(slash);
  auto ip = net::Ipv4Address::parse(addr_text);
  if (!ip) fail(line_no, line, "bad address '" + addr_text + "'");
  return {*ip, ifindex};
}

/// Parse one "{ if0: a.b.c.d ... }" body into a group's addresses.
std::vector<std::pair<net::Ipv4Address, int>> parse_group_body(
    const std::string& body, int line_no, const std::string& line) {
  std::vector<std::pair<net::Ipv4Address, int>> addresses;
  std::istringstream words(body);
  std::string token;
  std::string pending;
  while (words >> token) {
    // Re-join "if0:" " 10.0.0.1" splits: accept both "if0:addr" and
    // "if0: addr" forms.
    if (!pending.empty()) {
      token = pending + token;
      pending.clear();
    }
    if (token.back() == ':') {
      pending = token;
      continue;
    }
    addresses.push_back(parse_vif(token, line_no, line));
  }
  if (!pending.empty()) fail(line_no, line, "dangling interface prefix");
  if (addresses.empty()) fail(line_no, line, "empty VIP group");
  return addresses;
}

}  // namespace

Config parse_config(const std::string& text) {
  Config config;
  bool in_vifs = false;
  std::string prefer_csv;

  conf::for_each_line(text, [&](int line_no, const std::string& stripped,
                                const std::string& line) {
    if (in_vifs) {
      if (stripped == "}") {
        in_vifs = false;
        return;
      }
      // Either "{ ... }" or "name { ... }".
      auto open = stripped.find('{');
      auto close = stripped.rfind('}');
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        fail(line_no, line, "expected '[name] { ifN:addr ... }'");
      }
      auto name = conf::trim(stripped.substr(0, open));
      auto addresses = parse_group_body(
          stripped.substr(open + 1, close - open - 1), line_no, line);
      if (name.empty()) name = addresses.front().first.to_string();
      config.vip_groups.emplace_back(std::move(name), std::move(addresses));
      return;
    }

    if (conf::lower(stripped).rfind("virtualinterfaces", 0) == 0) {
      if (stripped.find('{') == std::string::npos) {
        fail(line_no, line, "VirtualInterfaces needs an opening '{'");
      }
      in_vifs = true;
      return;
    }

    auto [key, value] = conf::split_key_value(stripped, line_no, line, fail);

    if (key == "group") {
      config.group = value;
    } else if (key == "mature") {
      config.maturity_timeout =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "balance") {
      config.balance_timeout = conf::parse_duration(value, line_no, line, fail);
    } else if (key == "spreadretryinterval") {
      config.reconnect_interval =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "arpshare") {
      config.arp_share_interval =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "announce") {
      config.announce_interval =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "representativedriven") {
      config.representative_driven =
          conf::parse_bool(value, line_no, line, [&](int n, const auto& l,
                                                     const auto&) {
            fail(n, l, "RepresentativeDriven must be yes/no");
          });
    } else if (key == "acquireretries") {
      config.acquire_retry_limit =
          conf::parse_int(value, line_no, line, [&](int n, const auto& l,
                                                    const auto&) {
            fail(n, l, "AcquireRetries must be an integer");
          });
    } else if (key == "acquirebackoff") {
      config.acquire_backoff =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "acquirebackoffmax") {
      config.acquire_backoff_max =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "quarantinecooldown") {
      config.quarantine_cooldown =
          conf::parse_duration(value, line_no, line, fail);
    } else if (key == "backoffjitter") {
      try {
        config.backoff_jitter = std::stod(value);
      } catch (const std::exception&) {
        fail(line_no, line, "BackoffJitter must be a number");
      }
      if (config.backoff_jitter < 0.0 || config.backoff_jitter >= 1.0) {
        fail(line_no, line, "BackoffJitter must be in [0, 1)");
      }
    } else if (key == "weight") {
      config.weight =
          conf::parse_int(value, line_no, line, [&](int n, const auto& l,
                                                    const auto&) {
            fail(n, l, "Weight must be an integer");
          });
    } else if (key == "prefer") {
      prefer_csv = value;
    } else {
      fail(line_no, line, "unknown key '" + key + "'");
    }
  });
  if (in_vifs) {
    throw ConfigError("wackamole.conf: unterminated VirtualInterfaces block");
  }

  // Preferences reference group names, so resolve them last.
  if (!prefer_csv.empty() && conf::lower(prefer_csv) != "none") {
    std::istringstream items(prefer_csv);
    std::string item;
    while (std::getline(items, item, ',')) {
      auto name = conf::trim(item);
      if (!name.empty()) config.preferred.push_back(name);
    }
  }

  try {
    config.validate();
  } catch (const util::ContractViolation& e) {
    throw ConfigError(std::string("wackamole.conf: invalid configuration: ") +
                      e.what());
  }
  return config;
}

std::string render_config(const Config& config) {
  std::ostringstream out;
  out << "Group = " << config.group << "\n";
  out << "Mature = " << sim::to_seconds(config.maturity_timeout) << "s\n";
  out << "Balance = " << sim::to_seconds(config.balance_timeout) << "s\n";
  out << "SpreadRetryInterval = "
      << sim::to_seconds(config.reconnect_interval) << "s\n";
  out << "ArpShare = " << sim::to_seconds(config.arp_share_interval) << "s\n";
  out << "Announce = " << sim::to_seconds(config.announce_interval) << "s\n";
  out << "RepresentativeDriven = "
      << (config.representative_driven ? "yes" : "no") << "\n";
  out << "AcquireRetries = " << config.acquire_retry_limit << "\n";
  out << "AcquireBackoff = " << sim::to_seconds(config.acquire_backoff)
      << "s\n";
  out << "AcquireBackoffMax = " << sim::to_seconds(config.acquire_backoff_max)
      << "s\n";
  out << "QuarantineCooldown = "
      << sim::to_seconds(config.quarantine_cooldown) << "s\n";
  out << "BackoffJitter = " << config.backoff_jitter << "\n";
  out << "Weight = " << config.weight << "\n";
  if (!config.preferred.empty()) {
    out << "Prefer = ";
    for (std::size_t i = 0; i < config.preferred.size(); ++i) {
      if (i) out << ", ";
      out << config.preferred[i];
    }
    out << "\n";
  }
  out << "VirtualInterfaces {\n";
  for (const auto& group : config.vip_groups) {
    out << "  " << group.name << " {";
    for (const auto& [ip, ifindex] : group.addresses) {
      out << " if" << ifindex << ":" << ip.to_string() << "/32";
    }
    out << " }\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace wam::wackamole
