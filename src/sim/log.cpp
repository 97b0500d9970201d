#include "sim/log.hpp"

#include <cstdio>
#include <cstdlib>

#include "sim/scheduler.hpp"

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

Log::Log(const Scheduler& sched) : sched_(&sched) {
  // Environment opt-in for interactive debugging.
  if (const char* e = ::getenv("WAM_LOG"); e && e[0] == '1') echo_ = true;
}

void Log::print(LogLevel level, const std::string& component,
                const char* message) const {
  std::fprintf(stderr, "%12.6f %-5s [%s] %s\n",
               to_seconds(sched_->now().time_since_epoch()),
               log_level_name(level), component.c_str(), message);
}

}  // namespace wam::sim
