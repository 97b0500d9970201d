// Simulation-aware logging.
//
// Log lines carry the virtual timestamp and a component tag ("gcs/s3",
// "wam/s1", "net"). Records are kept in an in-memory ring so tests can
// assert on protocol activity, and optionally echoed to stderr when
// WAM_LOG=1 (or set_echo(true)) for debugging runs.
//
// Capture now, format on read. A logging call writes one fixed-size slot:
// virtual time, level, component, the format string (always a literal, so
// a pointer to it stays valid) and the argument VALUES. Nothing is
// formatted until the record is read (records(), find(), count() with a
// needle) or echoed, and a warm ring allocates nothing per record. The
// rendered text is exactly what snprintf of the format and the rendered
// arguments into 512 bytes gives, truncation at 511 characters included.
//
// How arguments are captured (LogArg below):
//  * arithmetic values by value;
//  * C strings and std::string by copy (a long one spills out of the slot
//    into a buffer the slot keeps for reuse);
//  * sim::Duration by value, rendered with format_duration();
//  * any other copyable value type with a to_string() member — Ipv4Address,
//    MacAddress, gcs::ViewId, gcs::MemberId, ... — by value, rendered with
//    its to_string() at read time.
// Each call's format string is checked against the rendered argument types
// at compile time (LogFormat), the way -Wformat checks printf.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace wam::sim {

class Scheduler;

enum class LogLevel : std::uint8_t { kTrace, kDebug, kInfo, kWarn, kError };

const char* log_level_name(LogLevel level);

/// A record as read back: the message rendered from its captured values.
struct LogRecord {
  TimePoint time;
  LogLevel level;
  std::string component;
  std::string message;

  [[nodiscard]] std::string render() const;
};

namespace log_detail {

/// Size of the eager path's formatting buffer: messages are cut at 511
/// characters exactly as vsnprintf into it cut them.
inline constexpr std::size_t kMessageBuffer = 512;

/// What a captured argument is handed to snprintf as.
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

constexpr std::size_t padded(std::size_t n) {
  return (n + 7) & ~std::size_t{7};
}

template <class T>
concept RendersToString = requires(const T& v) {
  { v.to_string() } -> std::convertible_to<std::string>;
};

/// Capture rules, one specialization per argument kind. Each provides
///   kFmt                     what the format must convert it as;
///   size(v)                  slot bytes the value takes (multiple of 8);
///   put(p, v)                store it at p, returning size(v);
///   get(p)                   what snprintf receives (via pass());
///   stored(p)                bytes the value at p takes;
///   kTrivial / destroy(p)    whether the stored bytes need a destructor.
/// A type without a rule cannot be logged (incomplete type error).
template <class T>
struct LogArg;

template <class T>
  requires std::is_arithmetic_v<T>
struct LogArg<T> {
  static constexpr FmtArg kFmt = [] {
    if constexpr (std::is_same_v<T, long double>) {
      return FmtArg::kLongDouble;
    } else if constexpr (std::is_floating_point_v<T>) {
      return FmtArg::kDouble;
    } else {
      return fmt_arg_of_integer<T>();
    }
  }();
  static constexpr bool kTrivial = true;
  static constexpr std::size_t size(T) { return padded(sizeof(T)); }
  static std::size_t put(unsigned char* p, T v) {
    std::memcpy(p, &v, sizeof(T));
    return size(v);
  }
  static T get(const unsigned char* p) {
    T v{};
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  static constexpr std::size_t stored(const unsigned char*) {
    return padded(sizeof(T));
  }
  static void destroy(unsigned char*) {}
};

/// Strings: a u32 length, the bytes and a NUL, so get() is a pointer into
/// the slot. A null pointer is kept as such (glibc prints "(null)").
struct StringArg {
  static constexpr FmtArg kFmt = FmtArg::kString;
  static constexpr bool kTrivial = true;
  static constexpr std::uint32_t kNull = UINT32_MAX;
  static std::size_t size(const char* s) {
    return s == nullptr ? 8 : size_of(std::strlen(s));
  }
  static std::size_t size(const std::string& s) { return size_of(s.size()); }
  static std::size_t put(unsigned char* p, const char* s) {
    if (s == nullptr) {
      std::memcpy(p, &kNull, 4);
      return 8;
    }
    return put_bytes(p, s, std::strlen(s));
  }
  static std::size_t put(unsigned char* p, const std::string& s) {
    return put_bytes(p, s.data(), s.size());
  }
  static const char* get(const unsigned char* p) {
    return length(p) == kNull ? nullptr
                              : reinterpret_cast<const char*>(p + 4);
  }
  static std::size_t stored(const unsigned char* p) {
    const auto n = length(p);
    return n == kNull ? 8 : size_of(n);
  }
  static void destroy(unsigned char*) {}

 private:
  static constexpr std::size_t size_of(std::size_t n) {
    return padded(4 + n + 1);
  }
  static std::uint32_t length(const unsigned char* p) {
    std::uint32_t n = 0;
    std::memcpy(&n, p, 4);
    return n;
  }
  static std::size_t put_bytes(unsigned char* p, const char* s,
                               std::size_t n) {
    const auto len = static_cast<std::uint32_t>(n);
    std::memcpy(p, &len, 4);
    std::memcpy(p + 4, s, n);
    p[4 + n] = '\0';
    return size_of(n);
  }
};

template <>
struct LogArg<const char*> : StringArg {};
template <>
struct LogArg<char*> : StringArg {};
template <>
struct LogArg<std::string> : StringArg {};

template <>
struct LogArg<Duration> {
  static constexpr FmtArg kFmt = FmtArg::kString;
  static constexpr bool kTrivial = true;
  static constexpr std::size_t size(Duration) { return 8; }
  static std::size_t put(unsigned char* p, Duration d) {
    const auto ns = d.count();
    std::memcpy(p, &ns, 8);
    return 8;
  }
  static std::string get(const unsigned char* p) {
    Duration::rep ns = 0;
    std::memcpy(&ns, p, 8);
    return format_duration(Duration(ns));
  }
  static constexpr std::size_t stored(const unsigned char*) { return 8; }
  static void destroy(unsigned char*) {}
};

/// Value types rendered by their own to_string(): a copy of the object
/// lives in the slot until the slot is reused.
template <class T>
  requires(!std::is_arithmetic_v<T> && RendersToString<T> &&
           std::is_copy_constructible_v<T>)
struct LogArg<T> {
  static_assert(alignof(T) <= 8, "slot payloads are 8-byte aligned");
  static constexpr FmtArg kFmt = FmtArg::kString;
  static constexpr bool kTrivial = std::is_trivially_destructible_v<T>;
  static constexpr std::size_t size(const T&) { return padded(sizeof(T)); }
  static std::size_t put(unsigned char* p, const T& v) {
    ::new (p) T(v);
    return size(v);
  }
  static std::string get(const unsigned char* p) {
    return object(p)->to_string();
  }
  static constexpr std::size_t stored(const unsigned char*) {
    return padded(sizeof(T));
  }
  static void destroy(unsigned char* p) {
    std::launder(reinterpret_cast<T*>(p))->~T();
  }

 private:
  static const T* object(const unsigned char* p) {
    return std::launder(reinterpret_cast<const T*>(p));
  }
};

/// The captured type of a call argument: arrays decay (string literals
/// become const char*), references and cv-qualifiers drop.
template <class A>
using Captured = std::decay_t<A>;

/// The capture rule for a call argument of type A.
template <class A>
using ArgOf = LogArg<Captured<A>>;

// ---- compile-time format checking --------------------------------------

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
  constexpr std::array<FmtArg, sizeof...(A)> kArgs{ArgOf<A>::kFmt...};
  return format_matches(fmt, kArgs.data(), kArgs.size());
}

/// Not constexpr: reaching it during constant evaluation is the compile
/// error a mismatched format produces, and its name is the diagnostic.
void log_format_does_not_match_its_arguments();

// ---- rendering ---------------------------------------------------------

inline const char* pass(const std::string& s) { return s.c_str(); }
template <class V>
V pass(V v) {
  return v;
}

template <class T>
auto take(const unsigned char*& p) {
  auto v = LogArg<T>::get(p);
  p += LogArg<T>::stored(p);
  return v;
}

/// Type-erased operations on one argument-type list's payload layout.
struct LogOps {
  void (*render)(const unsigned char* payload, const char* fmt, char* out,
                 std::size_t n);
  /// Null when no captured type needs a destructor.
  void (*destroy)(unsigned char* payload);
};

template <class... T>
struct OpsFor {
  static void render(const unsigned char* p, const char* fmt, char* out,
                     std::size_t n) {
    // Braced initialization evaluates take<>() left to right.
    std::tuple<decltype(take<T>(p))...> values{take<T>(p)...};
    std::apply(
        [&](const auto&... v) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-nonliteral"
#pragma GCC diagnostic ignored "-Wformat-security"
          std::snprintf(out, n, fmt, pass(v)...);
#pragma GCC diagnostic pop
        },
        values);
  }
  static void destroy([[maybe_unused]] unsigned char* p) {
    ((LogArg<T>::destroy(p), p += LogArg<T>::stored(p)), ...);
  }
  static constexpr LogOps kOps{
      &render, (LogArg<T>::kTrivial && ...) ? nullptr : &destroy};
};

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
  explicit Log(const Scheduler& sched, std::size_t capacity = 65536);
  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  void set_echo(bool on) { echo_ = on; }
  void set_min_level(LogLevel level) { min_level_ = level; }
  [[nodiscard]] LogLevel min_level() const { return min_level_; }
  /// Threshold check: a record below it is not captured at all.
  [[nodiscard]] bool would_log(LogLevel level) const {
    return level >= min_level_;
  }

  /// Index of `component` in this log's tag table, adding it on first
  /// sight. Loggers resolve their tag once, at construction.
  std::uint32_t component_id(const std::string& component);

  /// Capture one record (Logger's path; the level is already checked).
  template <class... A>
  void capture(LogLevel level, std::uint32_t component, const char* fmt,
               const A&... args) {
    using log_detail::ArgOf;
    using Ops = log_detail::OpsFor<log_detail::Captured<A>...>;
    const std::size_t bytes = (std::size_t{0} + ... + ArgOf<A>::size(args));
    [[maybe_unused]] unsigned char* p =
        begin_record(level, component, fmt, &Ops::kOps, bytes);
    ((p += ArgOf<A>::put(p, args)), ...);
    if (echo_) echo_last();
  }

  /// Every retained record, oldest first, rendered.
  [[nodiscard]] std::vector<LogRecord> records() const;
  /// Records whose component starts with `prefix` and message contains `needle`.
  [[nodiscard]] std::vector<LogRecord> find(const std::string& prefix,
                                            const std::string& needle = "") const;
  [[nodiscard]] std::size_t count(const std::string& prefix,
                                  const std::string& needle = "") const;
  void clear();

 private:
  static constexpr std::size_t kInline = 64;
  /// One record. Its payload is the captured arguments, laid out by
  /// `ops`'s argument-type list, inline when it fits and otherwise in
  /// `spill`, which the slot keeps (with its capacity) for reuse.
  struct Slot {
    TimePoint time{};
    const char* fmt = nullptr;
    const log_detail::LogOps* ops = nullptr;
    std::uint32_t component = 0;
    LogLevel level = LogLevel::kTrace;
    bool spilled = false;
    std::size_t spill_words = 0;
    std::unique_ptr<std::uint64_t[]> spill;
    alignas(8) unsigned char inline_payload[kInline];

    [[nodiscard]] unsigned char* payload() {
      return spilled ? reinterpret_cast<unsigned char*>(spill.get())
                     : inline_payload;
    }
    [[nodiscard]] const unsigned char* payload() const {
      return spilled ? reinterpret_cast<const unsigned char*>(spill.get())
                     : inline_payload;
    }
    void release();
  };

  /// Claim the next slot (evicting the oldest record when full), stamp
  /// its header and return where its `bytes` of payload go.
  unsigned char* begin_record(LogLevel level, std::uint32_t component,
                              const char* fmt, const log_detail::LogOps* ops,
                              std::size_t bytes);
  void echo_last() const;
  [[nodiscard]] Slot& slot(std::size_t physical) const;
  [[nodiscard]] const Slot& nth(std::size_t i) const;  // i-th oldest
  [[nodiscard]] std::string message(const Slot& s) const;
  [[nodiscard]] LogRecord materialize(const Slot& s) const;
  template <class Fn>
  void for_each_match(const std::string& prefix, const std::string& needle,
                      Fn&& fn) const;

  const Scheduler* sched_;
  std::size_t capacity_;
  std::size_t chunk_slots_;
  bool echo_ = false;
  LogLevel min_level_ = LogLevel::kTrace;
  std::vector<std::string> components_;
  /// Ring storage in fixed chunks, allocated as the ring first fills and
  /// never moved, so growth copies nothing.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t head_ = 0;  // physical index of the oldest record
  std::size_t size_ = 0;
  std::size_t last_ = 0;  // physical index of the newest record
};

/// Lightweight facade bound to one component tag.
class Logger {
 public:
  Logger() = default;
  Logger(Log* log, std::string component)
      : log_(log),
        component_(std::move(component)),
        component_id_(log != nullptr ? log->component_id(component_) : 0) {}

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
    if (log_ == nullptr || !log_->would_log(level)) return;
    log_->capture(level, component_id_, fmt, args...);
  }

  Log* log_ = nullptr;
  std::string component_;
  std::uint32_t component_id_ = 0;
};

}  // namespace wam::sim
