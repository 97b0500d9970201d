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

// What the eager path wrote: vsnprintf of the format and the rendered
// arguments into a 512-byte buffer.
std::string eager(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string eager(const char* fmt, ...) {
  char buf[512];
  std::va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::string last_message(const Log& log) {
  const auto records = log.records();
  return records.empty() ? "<none>" : records.back().message;
}

TEST(Log, RecordsCarryVirtualTimestamps) {
  Scheduler sched;
  Log log(sched);
  Logger logger(&log, "test/unit");
  sched.run_for(seconds(2.5));
  logger.info("hello %d", 42);
  const auto records = log.records();
  ASSERT_EQ(records.size(), 1u);
  const auto& rec = records.front();
  EXPECT_EQ(rec.time, TimePoint(seconds(2.5)));
  EXPECT_EQ(rec.component, "test/unit");
  EXPECT_EQ(rec.message, "hello 42");
  EXPECT_EQ(rec.level, LogLevel::kInfo);
}

TEST(Log, FindFiltersByComponentPrefixAndNeedle) {
  Scheduler sched;
  Log log(sched);
  Logger a(&log, "gcs/s1");
  Logger b(&log, "wam/s1");
  a.info("installed view 3");
  a.warn("fault detected");
  b.info("installed table");
  EXPECT_EQ(log.count("gcs/"), 2u);
  EXPECT_EQ(log.count("wam/"), 1u);
  EXPECT_EQ(log.count("gcs/", "installed"), 1u);
  EXPECT_EQ(log.count("", "installed"), 2u);
  EXPECT_TRUE(log.find("nope/").empty());
}

TEST(Log, MinLevelSuppresses) {
  Scheduler sched;
  Log log(sched);
  log.set_min_level(LogLevel::kWarn);
  Logger logger(&log, "x");
  logger.debug("quiet");
  logger.info("quiet");
  logger.warn("loud");
  logger.error("loud");
  EXPECT_EQ(log.records().size(), 2u);
}

TEST(Log, CapacityBoundsRing) {
  Scheduler sched;
  Log log(sched, 8);
  Logger logger(&log, "x");
  for (int i = 0; i < 32; ++i) logger.info("m%d", i);
  EXPECT_EQ(log.records().size(), 8u);
  EXPECT_EQ(log.records().back().message, "m31");
  EXPECT_EQ(log.records().front().message, "m24");
}

TEST(Log, RenderIncludesLevelAndComponent) {
  Scheduler sched;
  Log log(sched);
  Logger logger(&log, "gcs/s2");
  logger.error("boom");
  auto text = log.records().front().render();
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("[gcs/s2]"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
}

TEST(Log, NullLoggerIsSafe) {
  Logger logger;  // unattached
  EXPECT_FALSE(logger.enabled());
  logger.info("goes nowhere %s", "safely");
}

TEST(Log, ClearEmpties) {
  Scheduler sched;
  Log log(sched);
  Logger logger(&log, "x");
  logger.info("one");
  log.clear();
  EXPECT_TRUE(log.records().empty());
}

TEST(Log, EveryArgumentKindRendersLikeTheEagerPath) {
  Scheduler sched;
  Log log(sched);
  Logger logger(&log, "x");

  logger.info("%d %i %u %x %o %c %d", -7, 42, 7u, 255u, 8u, 'q', true);
  EXPECT_EQ(last_message(log), eager("%d %i %u %x %o %c %d", -7, 42, 7u, 255u,
                                     8u, 'q', true));

  const std::size_t size = 123456789012u;
  const std::uint8_t small = 200;
  const std::uint16_t port = 5353;
  logger.info("%zu %ld %lu %lld %llu %u %u", size, -5L, 6UL, -9LL,
              18446744073709551615ULL, small, port);
  EXPECT_EQ(last_message(log),
            eager("%zu %ld %lu %lld %llu %u %u", size, -5L, 6UL, -9LL,
                  18446744073709551615ULL, small, port));

  const float f = 2.5f;
  logger.info("%g %.1fms %8.3f|%-8.2e|%a %Lf", 0.1, 12.345, -3.14159, 1e-7,
              f, 1.5L);
  EXPECT_EQ(last_message(log), eager("%g %.1fms %8.3f|%-8.2e|%a %Lf", 0.1,
                                     12.345, -3.14159, 1e-7, f, 1.5L));

  const std::string group = "vip-10001";
  const char* detail = "address 10.0.0.101 already in use";
  char mutable_text[] = "mutable";
  logger.warn("acquire of '%s' failed: %s (%s, %s) %5s|%-5s|%.3s", group,
              detail, mutable_text, "literal", "ab", "cd", "truncated");
  EXPECT_EQ(last_message(log),
            eager("acquire of '%s' failed: %s (%s, %s) %5s|%-5s|%.3s",
                  group.c_str(), detail, mutable_text, "literal", "ab", "cd",
                  "truncated"));

  const char* null_text = nullptr;
  logger.info("[%s] 100%% done", null_text);
  EXPECT_EQ(last_message(log), "[(null)] 100% done");  // glibc's text

  const net::Ipv4Address ip(10, 0, 0, 100);
  const auto mac = *net::MacAddress::parse("02:00:00:00:00:2a");
  const gcs::DaemonId daemon(192, 168, 1, 3);
  const gcs::ViewId view{17, daemon};
  const gcs::MemberId member{daemon, 4, "wackamole"};
  const Duration timeout = milliseconds(1500);
  logger.debug("%s is-at %s -> %s; view %s; member %s; silent for %s", ip,
               mac, daemon, view, member, timeout);
  EXPECT_EQ(last_message(log),
            eager("%s is-at %s -> %s; view %s; member %s; silent for %s",
                  ip.to_string().c_str(), mac.to_string().c_str(),
                  daemon.to_string().c_str(), view.to_string().c_str(),
                  member.to_string().c_str(),
                  format_duration(timeout).c_str()));

  gcs::View members{view, {daemon, gcs::DaemonId(192, 168, 1, 4)}};
  logger.info("installed %s", members);
  members.members.clear();  // the record keeps the value it was given
  EXPECT_EQ(last_message(log),
            eager("installed %s",
                  gcs::View{view, {daemon, gcs::DaemonId(192, 168, 1, 4)}}
                      .to_string()
                      .c_str()));
}

TEST(Log, LongMessagesTruncateAt511CharactersLikeVsnprintf) {
  Scheduler sched;
  Log log(sched);
  Logger logger(&log, "x");
  const std::string long_name(700, 'n');
  const gcs::MemberId member{gcs::DaemonId(10, 0, 0, 1), 2,
                             std::string(600, 'm')};
  logger.warn("group %s from %s (%d)", long_name, member, 7);
  const auto text = last_message(log);
  EXPECT_EQ(text.size(), 511u);
  EXPECT_EQ(text, eager("group %s from %s (%d)", long_name.c_str(),
                        member.to_string().c_str(), 7));
  // Short records after a spilled one reuse the slot normally.
  logger.info("short %d", 1);
  EXPECT_EQ(last_message(log), "short 1");
}

TEST(Log, RingEvictsOldestFirstAcrossArgumentKinds) {
  Scheduler sched;
  Log log(sched, 4);
  Logger logger(&log, "gcs/s1");
  Logger other(&log, "wam/s1");
  for (int i = 0; i < 11; ++i) {
    const gcs::MemberId member{gcs::DaemonId(10, 0, 0, 1),
                               static_cast<std::uint32_t>(i),
                               std::string(40, 'a' + static_cast<char>(i))};
    if (i % 2 == 0) {
      logger.info("m%d %s", i, member);
    } else {
      other.info("m%d %s", i, std::string(100, 'x'));
    }
  }
  const auto records = log.records();
  ASSERT_EQ(records.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(records[static_cast<std::size_t>(k)].message.rfind(
                  "m" + std::to_string(7 + k) + " ", 0),
              0u);
  }
  EXPECT_EQ(records[0].component, "wam/s1");
  EXPECT_EQ(records[1].component, "gcs/s1");
  EXPECT_EQ(log.count("gcs/"), 2u);
  EXPECT_EQ(log.count("", "m10"), 1u);
  ASSERT_EQ(log.find("wam/", "m9").size(), 1u);
  EXPECT_EQ(log.find("wam/", "m9").front().time, TimePoint{});

  log.clear();
  EXPECT_TRUE(log.records().empty());
  logger.info("after clear %s", std::string(3, 'z'));
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records().front().message, "after clear zzz");
}

TEST(Log, EchoPrintsTheRenderedLine) {
  Scheduler sched;
  Log log(sched);
  log.set_echo(true);
  Logger logger(&log, "net/h1");
  sched.run_for(seconds(1.25));
  testing::internal::CaptureStderr();
  logger.info("alias + %s on if%d", net::Ipv4Address(10, 0, 0, 7), 0);
  const std::string echoed = testing::internal::GetCapturedStderr();
  EXPECT_EQ(echoed, log.records().back().render() + "\n");
  EXPECT_EQ(echoed, "    1.250000 INFO  [net/h1] alias + 10.0.0.7 on if0\n");
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
