#include "sim/log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "sim/scheduler.hpp"
#include "util/assert.hpp"

namespace wam::sim {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::string LogRecord::render() const {
  char head[96];
  std::snprintf(head, sizeof(head), "%12.6f %-5s [%s] ",
                to_seconds(time.time_since_epoch()), log_level_name(level),
                component.c_str());
  return std::string(head) + message;
}

namespace {
constexpr std::size_t kChunkSlots = 1024;
}  // namespace

Log::Log(const Scheduler& sched, std::size_t capacity)
    : sched_(&sched),
      capacity_(capacity),
      chunk_slots_(std::min(capacity, kChunkSlots)) {
  WAM_EXPECTS(capacity > 0);
  // Environment opt-in for interactive debugging.
  if (const char* e = ::getenv("WAM_LOG"); e && e[0] == '1') echo_ = true;
}

Log::~Log() { clear(); }

void Log::Slot::release() {
  if (ops != nullptr && ops->destroy != nullptr) ops->destroy(payload());
  ops = nullptr;
}

std::uint32_t Log::component_id(const std::string& component) {
  auto it = std::find(components_.begin(), components_.end(), component);
  if (it == components_.end()) {
    components_.push_back(component);
    it = components_.end() - 1;
  }
  return static_cast<std::uint32_t>(it - components_.begin());
}

Log::Slot& Log::slot(std::size_t physical) const {
  return chunks_[physical / chunk_slots_][physical % chunk_slots_];
}

const Log::Slot& Log::nth(std::size_t i) const {
  return slot((head_ + i) % capacity_);
}

unsigned char* Log::begin_record(LogLevel level, std::uint32_t component,
                                 const char* fmt,
                                 const log_detail::LogOps* ops,
                                 std::size_t bytes) {
  std::size_t physical = head_;  // when full: evict the oldest record
  if (size_ < capacity_) {
    physical = (head_ + size_) % capacity_;
    ++size_;
  } else {
    head_ = (head_ + 1) % capacity_;
  }
  // The ring fills in physical order from 0 before it first wraps (and
  // again after clear()), so a missing chunk is always the next one.
  if (physical / chunk_slots_ == chunks_.size()) {
    const std::size_t first = chunks_.size() * chunk_slots_;
    chunks_.push_back(
        std::make_unique<Slot[]>(std::min(chunk_slots_, capacity_ - first)));
  }
  Slot& s = slot(physical);
  s.release();
  s.time = sched_->now();
  s.level = level;
  s.component = component;
  s.fmt = fmt;
  s.ops = ops;
  s.spilled = bytes > kInline;
  if (s.spilled) {
    const std::size_t words = (bytes + 7) / 8;
    if (s.spill_words < words) {
      s.spill = std::make_unique<std::uint64_t[]>(words);
      s.spill_words = words;
    }
  }
  last_ = physical;
  return s.payload();
}

std::string Log::message(const Slot& s) const {
  char buf[log_detail::kMessageBuffer];
  s.ops->render(s.payload(), s.fmt, buf, sizeof(buf));
  return buf;
}

LogRecord Log::materialize(const Slot& s) const {
  return LogRecord{s.time, s.level, components_[s.component], message(s)};
}

void Log::echo_last() const {
  std::fprintf(stderr, "%s\n", materialize(slot(last_)).render().c_str());
}

std::vector<LogRecord> Log::records() const {
  std::vector<LogRecord> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(materialize(nth(i)));
  return out;
}

template <class Fn>
void Log::for_each_match(const std::string& prefix, const std::string& needle,
                         Fn&& fn) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const Slot& s = nth(i);
    if (components_[s.component].rfind(prefix, 0) != 0) continue;
    if (needle.empty()) {
      fn(s, nullptr);
      continue;
    }
    // Only a needle search renders the message.
    const std::string text = message(s);
    if (text.find(needle) != std::string::npos) fn(s, &text);
  }
}

std::vector<LogRecord> Log::find(const std::string& prefix,
                                 const std::string& needle) const {
  std::vector<LogRecord> out;
  for_each_match(prefix, needle, [&](const Slot& s, const std::string* text) {
    out.push_back(text != nullptr
                      ? LogRecord{s.time, s.level, components_[s.component],
                                  *text}
                      : materialize(s));
  });
  return out;
}

std::size_t Log::count(const std::string& prefix,
                       const std::string& needle) const {
  std::size_t n = 0;
  for_each_match(prefix, needle, [&](const Slot&, const std::string*) { ++n; });
  return n;
}

void Log::clear() {
  for (std::size_t i = 0; i < size_; ++i) {
    slot((head_ + i) % capacity_).release();
  }
  head_ = 0;
  size_ = 0;
}

}  // namespace wam::sim
