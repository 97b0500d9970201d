#include "chaos/dsl.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace wam::chaos {

namespace {

struct Verb {
  FaultKind kind;
  const char* name;
  /// One letter per operand: s = server, p = probability in [0, 1),
  /// i = group index >= 0, v = VIP index, g = partition groups.
  const char* operands;
};

// The one verb table: fault_kind_verb, to_dsl and parse_dsl all read it.
// Indexed by FaultKind.
constexpr Verb kVerbs[] = {
    {FaultKind::kPartition, "partition", "g"},
    {FaultKind::kMerge, "merge", ""},
    {FaultKind::kNicDown, "disconnect", "s"},
    {FaultKind::kNicUp, "reconnect", "s"},
    {FaultKind::kCrash, "crash", "s"},
    {FaultKind::kRestart, "restart", "s"},
    {FaultKind::kLeave, "leave", "s"},
    {FaultKind::kJoin, "join", "s"},
    {FaultKind::kDrop, "drop", "ss"},
    {FaultKind::kUndrop, "undrop", ""},
    {FaultKind::kLoss, "loss", "p"},
    {FaultKind::kOsFail, "osfail", "sp"},
    {FaultKind::kOsFailSticky, "osfail-sticky", "s"},
    {FaultKind::kArpLose, "arp-lose", "s"},
    {FaultKind::kOsHeal, "osheal", "s"},
    {FaultKind::kCorruptVipOwner, "corrupt-vip-owner", "si"},
    {FaultKind::kCorruptIndex, "corrupt-index", "si"},
    {FaultKind::kStaleIncarnation, "stale-incarnation", "s"},
    {FaultKind::kFlipViewId, "flip-view-id", "s"},
    {FaultKind::kReconfigStorm, "reconfig-storm", "s"},
    {FaultKind::kProbe, "probe", "v"},
    {FaultKind::kBalance, "balance", ""},
    {FaultKind::kStatus, "status", "s"},
    {FaultKind::kCoverage, "coverage", ""},
};

constexpr bool indexed_by_kind() {
  for (std::size_t i = 0; i < std::size(kVerbs); ++i) {
    if (static_cast<std::size_t>(kVerbs[i].kind) != i) return false;
  }
  return std::size(kVerbs) ==
         static_cast<std::size_t>(FaultKind::kCoverage) + 1;
}
static_assert(indexed_by_kind());

template <class T>
void append_num(std::string& out, T v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Whole milliseconds as "S.mmm", anything finer with nine digits.
void append_secs(std::string& out, sim::Duration d) {
  const long long ns = d.count();
  const long long frac = ns % 1'000'000'000;
  char buf[40];
  const int n =
      frac % 1'000'000 == 0
          ? std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                          ns / 1'000'000'000, frac / 1'000'000)
          : std::snprintf(buf, sizeof(buf), "%lld.%09lld",
                          ns / 1'000'000'000, frac);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_server(std::string& out, int i) {
  out += "server";
  append_num(out, i + 1);
}

[[noreturn]] void fail(int line_no, const std::string& why) {
  throw std::invalid_argument("scenario line " + std::to_string(line_no) +
                              ": " + why);
}

/// The whole token as a T, or nothing.
template <class T>
std::optional<T> parse_num(std::string_view token) {
  T v{};
  const char* end = token.data() + token.size();
  auto r = std::from_chars(token.data(), end, v);
  if (token.empty() || r.ec != std::errc() || r.ptr != end) return {};
  return v;
}

/// Decimal seconds read with integer arithmetic, exact to the nanosecond
/// (sim::seconds(double) would truncate e.g. 1.001 to 1.000999999).
std::optional<sim::Duration> parse_secs(std::string_view token) {
  const auto dot = std::min(token.find('.'), token.size());
  std::string frac(token.substr(std::min(dot + 1, token.size())));
  auto whole = parse_num<std::int64_t>(token.substr(0, dot));
  if (!whole || *whole < 0 || *whole >= 1'000'000'000 || frac.size() > 9 ||
      (dot < token.size() && frac.empty()) ||
      frac.find_first_not_of("0123456789") != std::string::npos) {
    return {};
  }
  frac.resize(9, '0');
  return sim::Duration(*whole * 1'000'000'000 + *parse_num<std::int64_t>(frac));
}

}  // namespace

const char* fault_kind_verb(FaultKind k) {
  return kVerbs[static_cast<std::size_t>(k)].name;
}

std::string to_dsl(const FaultSchedule& s) {
  std::string out;
  out.reserve(48 + 40 * (s.actions.size() + s.checkpoints.size()));
  out += s.router_profile ? "chaos router" : "chaos cluster";
  if (s.os_faults) out += " os-faults";
  if (s.state_faults) out += " state-faults";
  out += "\nservers ";
  append_num(out, s.num_servers);
  out += "\nvips ";
  append_num(out, s.num_vips);
  out += "\n\n";
  // One chronological listing, in the order the executor visits it: an
  // action runs before a checkpoint at the same instant.
  std::size_t ci = 0;
  auto checks_before = [&](sim::Duration t) {
    for (; ci < s.checkpoints.size() && s.checkpoints[ci].at < t; ++ci) {
      out += "check ";
      append_secs(out, s.checkpoints[ci].at);
      out += s.checkpoints[ci].regression_guard ? " guard\n" : "\n";
    }
  };
  for (const auto& a : s.actions) {
    checks_before(a.at);
    out += "at ";
    append_secs(out, a.at);
    out += ' ';
    out += fault_kind_verb(a.kind);
    auto server = a.servers.begin();
    for (const char* o = kVerbs[static_cast<std::size_t>(a.kind)].operands;
         *o != '\0'; ++o) {
      out += ' ';
      if (*o == 's') {
        append_server(out, *server++);
      } else if (*o != 'g') {
        append_num(out, a.value);  // shortest text that parses back exactly
      } else {
        for (std::size_t g = 0; g < a.groups.size(); ++g) {
          if (g > 0) out += " | ";
          for (std::size_t i = 0; i < a.groups[g].size(); ++i) {
            if (i > 0) out += ',';
            append_server(out, a.groups[g][i]);
          }
        }
      }
    }
    out += '\n';
  }
  checks_before(sim::Duration::max());
  out += "run ";
  append_secs(out, s.horizon);
  out += '\n';
  return out;
}

DslScript parse_dsl(const std::string& text) {
  DslScript script;
  FaultSchedule& s = script.schedule;
  s.num_servers = script.world.num_servers;
  s.num_vips = script.world.num_vips;
  int hand_written_line = 0;  // a gcs/balance/probe line or scenario verb

  std::istringstream in(text);
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    line.resize(std::min(line.find('#'), line.size()));
    std::istringstream words(line);
    auto bad = [&](const std::string& why) {
      fail(line_no, "'" + line + "': " + why);
    };
    auto next = [&] {
      std::string w;
      words >> w;
      return w;
    };
    // The next token as a T within [lo, hi].
    auto num = [&]<class T>(T lo, T hi, const std::string& what) {
      auto v = parse_num<T>(next());
      if (!v || *v < lo || *v > hi) bad(what);
      return *v;
    };
    auto secs = [&](const std::string& what) {
      auto t = parse_secs(next());
      if (!t) bad(what + " needs decimal seconds");
      return *t;
    };
    auto server = [&] {
      const std::string token = next();
      if (token.rfind("server", 0) != 0) bad("expected serverN: " + token);
      auto i = parse_num<int>(std::string_view(token).substr(6));
      if (!i || *i < 1 || *i > s.num_servers) bad("no such server: " + token);
      return *i - 1;
    };
    constexpr int kIntMax = std::numeric_limits<int>::max();

    const std::string word = next();
    if (word.empty()) continue;
    if (word == "chaos") {
      script.chaos = true;
      const std::string profile = next();
      if (profile != "cluster" && profile != "router") {
        bad("chaos needs a profile: cluster or router");
      }
      s.router_profile = profile == "router";
      for (std::string flag = next(); !flag.empty(); flag = next()) {
        if (flag != "os-faults" && flag != "state-faults") {
          bad("unknown chaos flag " + flag);
        }
        (flag == "os-faults" ? s.os_faults : s.state_faults) = true;
      }
    } else if (word == "seed") {
      script.world.seed = num(std::uint64_t{0},
                              std::numeric_limits<std::uint64_t>::max(),
                              "seed needs an unsigned integer");
    } else if (word == "servers") {
      s.num_servers = num(1, kIntMax, "servers needs a positive count");
    } else if (word == "vips") {
      s.num_vips = num(1, kIntMax, "vips needs a positive count");
    } else if (word == "gcs") {
      hand_written_line = line_no;
      const std::string which = next();
      if (which != "tuned" && which != "default") {
        bad("gcs must be 'tuned' or 'default'");
      }
      script.world.gcs = which == "tuned" ? gcs::Config::spread_tuned()
                                          : gcs::Config::spread_default();
    } else if (word == "balance") {
      hand_written_line = line_no;
      script.world.balance_timeout = secs("balance");
    } else if (word == "probe") {
      // ProbeConfig knobs; omitted lines keep the paper's defaults.
      hand_written_line = line_no;
      const std::string knob = next();
      if (knob == "interval") {
        script.world.probe.every(secs("probe interval"));
        if (script.world.probe.interval <= sim::kZero) bad("zero interval");
      } else if (knob == "port") {
        script.world.probe.port(static_cast<std::uint16_t>(
            num(1, 65535, "probe port needs a port number")));
      } else {
        bad("probe knob must be 'interval' or 'port'");
      }
    } else if (word == "run") {
      s.horizon = secs("run");
      if (s.horizon <= sim::kZero) bad("run needs a positive end time");
    } else if (word == "check") {
      Checkpoint cp{secs("check")};
      const std::string guard = next();
      if (!guard.empty() && guard != "guard") bad("check takes only 'guard'");
      cp.regression_guard = !guard.empty();
      s.checkpoints.push_back(cp);
    } else if (word == "at") {
      FaultAction a;
      a.at = secs("at");
      const std::string name = next();
      const auto* verb =
          std::find_if(std::begin(kVerbs), std::end(kVerbs),
                       [&](const Verb& v) { return name == v.name; });
      if (verb == std::end(kVerbs)) bad("unknown action " + name);
      a.kind = verb->kind;
      if (a.kind >= FaultKind::kProbe) hand_written_line = line_no;
      for (const char* o = verb->operands; *o != '\0'; ++o) {
        if (*o == 's') {
          a.servers.push_back(server());
        } else if (*o == 'p') {
          a.value = num(0.0, std::nextafter(1.0, 0.0), name + " needs p < 1");
        } else if (*o == 'i' || *o == 'v') {
          a.value = num(0, *o == 'i' ? kIntMax : s.num_vips - 1,
                        name + " index out of range");
        } else {
          // The rest of the line: comma lists separated by '|' that name
          // every server exactly once.
          std::string rest;
          std::getline(words, rest);
          std::istringstream sides(rest);
          std::vector<int> named;
          for (std::string side; std::getline(sides, side, '|');) {
            std::replace(side.begin(), side.end(), ',', ' ');
            words = std::istringstream(side);
            auto& group = a.groups.emplace_back();
            while (words >> std::ws && !words.eof()) group.push_back(server());
            named.insert(named.end(), group.begin(), group.end());
            if (group.empty()) bad("empty partition group");
          }
          std::sort(named.begin(), named.end());
          if (a.groups.size() < 2 ||
              named.size() != static_cast<std::size_t>(s.num_servers) ||
              std::adjacent_find(named.begin(), named.end()) != named.end()) {
            bad("partition needs two or more groups naming every server once");
          }
        }
      }
      if (a.kind == FaultKind::kDrop && a.servers[0] == a.servers[1]) {
        bad("drop needs two distinct servers");
      }
      s.actions.push_back(std::move(a));
    } else {
      bad("unknown directive " + word);
    }
    if (const std::string extra = next(); !extra.empty()) {
      bad("unexpected " + extra);
    }
  }

  if (script.chaos && hand_written_line > 0) {
    fail(hand_written_line,
         "gcs, balance, probe and scenario-only verbs belong to hand-written "
         "scenarios; a chaos artifact runs in the campaign's world");
  }
  auto by_time = [](const auto& x, const auto& y) { return x.at < y.at; };
  std::stable_sort(s.actions.begin(), s.actions.end(), by_time);
  std::stable_sort(s.checkpoints.begin(), s.checkpoints.end(), by_time);
  if (s.horizon == sim::kZero) {
    // No `run` line: run a bit past the last action or check.
    s.horizon = sim::seconds(10.0);
    for (const auto& a : s.actions) {
      s.horizon = std::max(s.horizon, a.at + sim::seconds(10.0));
    }
    for (const auto& c : s.checkpoints) {
      s.horizon = std::max(s.horizon, c.at + sim::seconds(10.0));
    }
  }
  script.world.num_servers = s.num_servers;
  script.world.num_vips = s.num_vips;
  return script;
}

}  // namespace wam::chaos
