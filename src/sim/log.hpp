// Simulation-aware logging: an echo to stderr for debugging runs.
//
// Log lines carry the virtual timestamp and a component tag ("gcs/s3",
// "wam/s1", "net"). Nothing is kept: the typed record of a run is the
// obs::EventTimeline. With echo off (the default) a logging call returns
// at once, before any argument is rendered. With WAM_LOG=1 in the
// environment when the Log is built (or set_echo(true)) each call is
// formatted and written to stderr as one line,
// "<seconds> <LEVEL> [<component>] <message>".
//
// The message is what snprintf of the format and the rendered arguments
// into 512 bytes gives, so it is cut at 511 characters. How arguments
// render (render() below):
//  * arithmetic values as they are;
//  * C strings and std::string as const char*;
//  * sim::Duration with format_duration();
//  * any other type with a to_string() member — Ipv4Address, MacAddress,
//    gcs::ViewId, gcs::MemberId, gcs::GroupView, ... — with to_string().
// So a call site passes the value, never text made in advance: text costs
// nothing unless the line is echoed. Each call's format string is checked
// against the rendered argument types at compile time (LogFormat), the way
// -Wformat checks printf.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/time.hpp"

namespace wam::sim {

class Scheduler;

enum class LogLevel : std::uint8_t { kTrace, kDebug, kInfo, kWarn, kError };

const char* log_level_name(LogLevel level);

namespace log_detail {

/// Size of the formatting buffer: messages are cut at 511 characters.
inline constexpr std::size_t kMessageBuffer = 512;

template <class T>
concept RendersToString = requires(const T& v) {
  { v.to_string() } -> std::convertible_to<std::string>;
};

// ---- rendering: what snprintf receives for each argument ----------------

template <class T>
  requires std::is_arithmetic_v<T>
T render(T v) {
  return v;
}
inline const char* render(const char* s) { return s; }
inline const char* render(const std::string& s) { return s.c_str(); }
inline std::string render(Duration d) { return format_duration(d); }
template <class T>
  requires(!std::is_arithmetic_v<T> && RendersToString<T>)
std::string render(const T& v) {
  return v.to_string();
}

/// A rendered value as a vararg: text made by render() lives until the end
/// of the full expression that formats it.
inline const char* vararg(const std::string& s) { return s.c_str(); }
template <class V>
V vararg(V v) {
  return v;
}

// ---- compile-time format checking --------------------------------------

/// What a rendered argument is handed to snprintf as.
enum class FmtArg : std::uint8_t {
  kInt,         // int after the default promotions (bool, char, short, ...)
  kLong,        // long / unsigned long
  kLongLong,    // long long / unsigned long long
  kDouble,      // float, double
  kLongDouble,  // long double
  kString,      // const char*
};

template <class T>
constexpr FmtArg fmt_arg_of_integer() {
  if constexpr (sizeof(T) <= sizeof(int)) {
    return FmtArg::kInt;
  } else if constexpr (std::is_same_v<std::make_signed_t<T>, long>) {
    return FmtArg::kLong;
  } else {
    static_assert(std::is_same_v<std::make_signed_t<T>, long long>);
    return FmtArg::kLongLong;
  }
}

/// The kind of a call argument of type A, read off what render() makes of
/// it. A type render() does not take cannot be logged.
template <class A>
constexpr FmtArg fmt_arg_of() {
  using R = decltype(log_detail::render(std::declval<const A&>()));
  if constexpr (std::is_same_v<R, long double>) {
    return FmtArg::kLongDouble;
  } else if constexpr (std::is_floating_point_v<R>) {
    return FmtArg::kDouble;
  } else if constexpr (std::is_arithmetic_v<R>) {
    return fmt_arg_of_integer<R>();
  } else {
    static_assert(std::is_same_v<R, const char*> ||
                  std::is_same_v<R, std::string>);
    return FmtArg::kString;
  }
}

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Whether `fmt` converts exactly `n` arguments of the given kinds, by
/// printf's rules and as leniently as -Wformat (signedness may differ).
/// '*' widths, positional arguments and %n are not supported.
constexpr bool format_matches(const char* fmt, const FmtArg* args,
                              std::size_t n) {
  enum class Len { kNone, kHH, kH, kL, kLL, kBigL, kZ, kJ, kT };
  std::size_t used = 0;
  const char* f = fmt;
  while (*f != '\0') {
    if (*f++ != '%') continue;
    if (*f == '%') {
      ++f;
      continue;
    }
    while (*f == '-' || *f == '+' || *f == ' ' || *f == '#' || *f == '0' ||
           *f == '\'') {
      ++f;
    }
    while (is_digit(*f)) ++f;
    if (*f == '.') {
      ++f;
      while (is_digit(*f)) ++f;
    }
    Len len = Len::kNone;
    if (*f == 'h') {
      ++f;
      len = Len::kH;
      if (*f == 'h') {
        ++f;
        len = Len::kHH;
      }
    } else if (*f == 'l') {
      ++f;
      len = Len::kL;
      if (*f == 'l') {
        ++f;
        len = Len::kLL;
      }
    } else if (*f == 'L' || *f == 'z' || *f == 'j' || *f == 't') {
      len = *f == 'L' ? Len::kBigL
            : *f == 'z' ? Len::kZ
            : *f == 'j' ? Len::kJ
                        : Len::kT;
      ++f;
    }
    const char conv = *f;
    if (conv == '\0' || used == n) return false;
    ++f;
    const FmtArg arg = args[used++];
    switch (conv) {
      case 'd': case 'i': case 'u': case 'o': case 'x': case 'X': {
        FmtArg want = FmtArg::kInt;
        switch (len) {
          case Len::kNone: case Len::kH: case Len::kHH:
            want = FmtArg::kInt;
            break;
          case Len::kL: want = FmtArg::kLong; break;
          case Len::kLL: want = FmtArg::kLongLong; break;
          case Len::kZ: want = fmt_arg_of_integer<std::size_t>(); break;
          case Len::kJ: want = fmt_arg_of_integer<std::intmax_t>(); break;
          case Len::kT: want = fmt_arg_of_integer<std::ptrdiff_t>(); break;
          case Len::kBigL: return false;
        }
        if (arg != want) return false;
        break;
      }
      case 'c':
        if (len != Len::kNone || arg != FmtArg::kInt) return false;
        break;
      case 'f': case 'F': case 'e': case 'E': case 'g': case 'G':
      case 'a': case 'A':
        if (len == Len::kBigL) {
          if (arg != FmtArg::kLongDouble) return false;
        } else if ((len != Len::kNone && len != Len::kL) ||
                   arg != FmtArg::kDouble) {
          return false;
        }
        break;
      case 's':
        if (len != Len::kNone || arg != FmtArg::kString) return false;
        break;
      default:
        return false;  // %p, %n, '*' widths, positional arguments, typos
    }
  }
  return used == n;
}

template <class... A>
constexpr bool format_matches(const char* fmt) {
  constexpr std::array<FmtArg, sizeof...(A)> kArgs{fmt_arg_of<A>()...};
  return format_matches(fmt, kArgs.data(), kArgs.size());
}

/// Not constexpr: reaching it during constant evaluation is the compile
/// error a mismatched format produces, and its name is the diagnostic.
void log_format_does_not_match_its_arguments();

}  // namespace log_detail

/// A format string checked against the argument types at compile time.
/// Implicitly constructed from the string literal at each call site.
template <class... A>
struct LogFormat {
  template <class S>
    requires std::convertible_to<const S&, const char*>
  consteval LogFormat(const S& s) : str(s) {  // NOLINT: implicit by design
    if (!log_detail::format_matches<A...>(str)) {
      log_detail::log_format_does_not_match_its_arguments();
    }
  }
  const char* str;
};

/// One Log per simulation; components hold (Log*, tag) pairs.
class Log {
 public:
  /// Echo is on when WAM_LOG=1 is in the environment.
  explicit Log(const Scheduler& sched);
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  void set_echo(bool on) { echo_ = on; }
  [[nodiscard]] bool echo() const { return echo_; }

  /// Format one line and write it to stderr (Logger's path; the caller
  /// has checked echo()).
  template <class... A>
  void write(LogLevel level, const std::string& component, const char* fmt,
             const A&... args) const {
    char message[log_detail::kMessageBuffer];
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
#pragma GCC diagnostic ignored "-Wformat-security"
    std::snprintf(message, sizeof(message), fmt,
                  log_detail::vararg(log_detail::render(args))...);
#pragma GCC diagnostic pop
    print(level, component, message);
  }

 private:
  void print(LogLevel level, const std::string& component,
             const char* message) const;

  const Scheduler* sched_;
  bool echo_ = false;
};

/// Lightweight facade bound to one component tag.
class Logger {
 public:
  Logger() = default;
  Logger(Log* log, std::string component)
      : log_(log), component_(std::move(component)) {}

  template <class... A>
  void trace(LogFormat<std::type_identity_t<A>...> fmt,
             const A&... args) const {
    write(LogLevel::kTrace, fmt.str, args...);
  }
  template <class... A>
  void debug(LogFormat<std::type_identity_t<A>...> fmt,
             const A&... args) const {
    write(LogLevel::kDebug, fmt.str, args...);
  }
  template <class... A>
  void info(LogFormat<std::type_identity_t<A>...> fmt,
            const A&... args) const {
    write(LogLevel::kInfo, fmt.str, args...);
  }
  template <class... A>
  void warn(LogFormat<std::type_identity_t<A>...> fmt,
            const A&... args) const {
    write(LogLevel::kWarn, fmt.str, args...);
  }
  template <class... A>
  void error(LogFormat<std::type_identity_t<A>...> fmt,
             const A&... args) const {
    write(LogLevel::kError, fmt.str, args...);
  }

  [[nodiscard]] bool enabled() const { return log_ != nullptr; }
  [[nodiscard]] const std::string& component() const { return component_; }

 private:
  template <class... A>
  void write(LogLevel level, const char* fmt, const A&... args) const {
    if (log_ == nullptr || !log_->echo()) return;
    log_->write(level, component_, fmt, args...);
  }

  Log* log_ = nullptr;
  std::string component_;
};

}  // namespace wam::sim
