#include "sim/log.hpp"

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>

#include "gcs/types.hpp"
#include "net/address.hpp"
#include "sim/scheduler.hpp"

namespace wam::sim {
namespace {

// The reference text: vsnprintf of the format and the rendered arguments
// into a 512-byte buffer.
std::string eager(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string eager(const char* fmt, ...) {
  char buf[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// What `call` echoes to stderr.
template <class Fn>
std::string echoed(Fn&& call) {
  testing::internal::CaptureStderr();
  call();
  return testing::internal::GetCapturedStderr();
}

// The message of the one line `call` echoes: the text after the
// "<seconds> <LEVEL> [<component>] " header, without the newline.
template <class Fn>
std::string echoed_message(Fn&& call) {
  const std::string line = echoed(call);
  const auto start = line.find("] ");
  if (start == std::string::npos || line.back() != '\n') return "<none>";
  return line.substr(start + 2, line.size() - start - 3);
}

TEST(Log, RecordsCarryVirtualTimestamps) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(true);
  Logger logger(&log, "test/unit");
  sched.run_for(seconds(2.5));
  EXPECT_EQ(echoed([&] { logger.info("hello %d", 42); }),
            "    2.500000 INFO  [test/unit] hello 42\n");
}

TEST(Log, RenderIncludesLevelAndComponent) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(true);
  Logger logger(&log, "gcs/s2");
  const auto text = echoed([&] { logger.error("boom"); });
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("[gcs/s2]"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
}

TEST(Log, NullLoggerIsSafe) {
  Logger logger;  // unattached
  EXPECT_FALSE(logger.enabled());
  logger.info("goes nowhere %s", "safely");
}

// Counts its renderings, to show when an argument is rendered.
struct Probe {
  int* calls;
  [[nodiscard]] std::string to_string() const {
    ++*calls;
    return "probe";
  }
};

TEST(Log, EchoOffWritesAndRendersNothing) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(false);
  Logger logger(&log, "x");
  int calls = 0;
  EXPECT_EQ(echoed([&] { logger.info("%s %s", Probe{&calls}, seconds(1)); }),
            "");
  EXPECT_EQ(calls, 0);
  log.set_echo(true);
  EXPECT_EQ(echoed_message([&] { logger.info("%s", Probe{&calls}); }),
            "probe");
  EXPECT_EQ(calls, 1);
}

TEST(Log, EveryArgumentKindRendersLikeTheEagerPath) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(true);
  Logger logger(&log, "x");

  EXPECT_EQ(echoed_message([&] {
              logger.info("%d %i %u %x %o %c %d", -7, 42, 7u, 255u, 8u, 'q',
                          true);
            }),
            eager("%d %i %u %x %o %c %d", -7, 42, 7u, 255u, 8u, 'q', true));

  const std::size_t size = 123456789012u;
  const std::uint8_t small = 200;
  const std::uint16_t port = 5353;
  EXPECT_EQ(echoed_message([&] {
              logger.info("%zu %ld %lu %lld %llu %u %u", size, -5L, 6UL, -9LL,
                          18446744073709551615ULL, small, port);
            }),
            eager("%zu %ld %lu %lld %llu %u %u", size, -5L, 6UL, -9LL,
                  18446744073709551615ULL, small, port));

  const float f = 2.5f;
  EXPECT_EQ(echoed_message([&] {
              logger.info("%g %.1fms %8.3f|%-8.2e|%a %Lf", 0.1, 12.345,
                          -3.14159, 1e-7, f, 1.5L);
            }),
            eager("%g %.1fms %8.3f|%-8.2e|%a %Lf", 0.1, 12.345, -3.14159,
                  1e-7, f, 1.5L));

  const std::string group = "vip-10001";
  const char* detail = "address 10.0.0.101 already in use";
  char mutable_text[] = "mutable";
  EXPECT_EQ(echoed_message([&] {
              logger.warn("acquire of '%s' failed: %s (%s, %s) %5s|%-5s|%.3s",
                          group, detail, mutable_text, "literal", "ab", "cd",
                          "truncated");
            }),
            eager("acquire of '%s' failed: %s (%s, %s) %5s|%-5s|%.3s",
                  group.c_str(), detail, mutable_text, "literal", "ab", "cd",
                  "truncated"));

  // Read through a volatile, so the compiler does not see the null at
  // compile time and warn about the %s it is given.
  const char* volatile null_source = nullptr;
  const char* null_text = null_source;
  EXPECT_EQ(echoed_message([&] { logger.info("[%s] 100%% done", null_text); }),
            "[(null)] 100% done");  // glibc's text

  const net::Ipv4Address ip(10, 0, 0, 100);
  const auto mac = *net::MacAddress::parse("02:00:00:00:00:2a");
  const gcs::DaemonId daemon(192, 168, 1, 3);
  const gcs::ViewId view{17, daemon};
  const gcs::MemberId member{daemon, 4, "wackamole"};
  const Duration timeout = milliseconds(1500);
  EXPECT_EQ(echoed_message([&] {
              logger.debug("%s is-at %s -> %s; view %s; member %s; silent for %s",
                           ip, mac, daemon, view, member, timeout);
            }),
            eager("%s is-at %s -> %s; view %s; member %s; silent for %s",
                  ip.to_string().c_str(), mac.to_string().c_str(),
                  daemon.to_string().c_str(), view.to_string().c_str(),
                  member.to_string().c_str(),
                  format_duration(timeout).c_str()));

  const gcs::View members{view, {daemon, gcs::DaemonId(192, 168, 1, 4)}};
  EXPECT_EQ(echoed_message([&] { logger.info("installed %s", members); }),
            eager("installed %s", members.to_string().c_str()));
}

TEST(Log, LongMessagesTruncateAt511CharactersLikeVsnprintf) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(true);
  Logger logger(&log, "x");
  const std::string long_name(700, 'n');
  const gcs::MemberId member{gcs::DaemonId(10, 0, 0, 1), 2,
                             std::string(600, 'm')};
  const auto text = echoed_message(
      [&] { logger.warn("group %s from %s (%d)", long_name, member, 7); });
  EXPECT_EQ(text.size(), 511u);
  EXPECT_EQ(text, eager("group %s from %s (%d)", long_name.c_str(),
                        member.to_string().c_str(), 7));
}

TEST(Log, EchoPrintsTheRenderedLine) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(true);
  Logger logger(&log, "net/h1");
  sched.run_for(seconds(1.25));
  EXPECT_EQ(echoed([&] {
              logger.info("alias + %s on if%d", net::Ipv4Address(10, 0, 0, 7),
                          0);
            }),
            "    1.250000 INFO  [net/h1] alias + 10.0.0.7 on if0\n");
}

// The compile-time format check, exercised directly: a call whose format
// does not match its arguments does not compile.
using log_detail::format_matches;
static_assert(format_matches<>("plain 100%% text"));
static_assert(format_matches<int, const char*>("%d %s"));
static_assert(format_matches<net::Ipv4Address, Duration>("%-16s %s"));
static_assert(format_matches<std::size_t, unsigned long long, double>(
    "%zu %llu %.1f"));
static_assert(format_matches<char, bool, std::uint8_t>("%c %d %u"));
static_assert(!format_matches<const char*>("%d"));
static_assert(!format_matches<int>("%s"));
static_assert(!format_matches<net::Ipv4Address>("%u"));
static_assert(!format_matches<int>("%zu"));
static_assert(!format_matches<std::uint64_t>("%llu"));
static_assert(!format_matches<double>("%Lf"));
static_assert(!format_matches<int, int>("%d"));
static_assert(!format_matches<int>("%d %d"));
static_assert(!format_matches<int>("%*d"));
static_assert(!format_matches<>("%"));

TEST(Log, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace wam::sim
