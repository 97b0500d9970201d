#include "obs/events.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/json.hpp"
#include "util/assert.hpp"

namespace wam::obs {

namespace {

// Indexed by EventType, in declaration order.
constexpr const char* kEventTypeNames[] = {
    "ViewInstalled", "StateTransition", "VipAcquired",
    "VipReleased",   "BalanceRound",    "Reallocation",
    "Disconnect",    "ArpAnnounce",     "FaultInjected",
    "FaultHealed",   "ArpConflict",     "GroupFenced",
    "GroupUnfenced", "PanicRelease",    "CorruptionDetected",
    "SelfHeal",
};
static_assert(std::size(kEventTypeNames) ==
                  static_cast<std::size_t>(EventType::kCount),
              "one name per EventType");

}  // namespace

const char* event_type_name(EventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < std::size(kEventTypeNames) ? kEventTypeNames[i] : "?";
}

std::string Value::str() const {
  struct Render {
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(std::string_view v) const { return std::string(v); }
    std::string operator()(net::Ipv4Address v) const { return v.to_string(); }
    std::string operator()(const std::shared_ptr<const std::string>& v) const {
      return *v;
    }
  };
  return std::visit(Render{}, v_);
}

std::optional<std::string> Event::field(std::string_view key) const {
  for (const auto& f : fields()) {
    if (f.key == key) return f.value.str();
  }
  return std::nullopt;
}

std::string Event::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("seq").value(seq);
  w.key("t_ns").value(
      static_cast<std::int64_t>(time.time_since_epoch().count()));
  w.key("type").value(event_type_name(type));
  w.key("source").value(std::string(source));
  w.key("fields").begin_object();
  for (const auto& f : fields()) w.key(f.key).value(f.value.str());
  w.end_object();
  w.end_object();
  return w.str();
}

void EventTimeline::emit(sim::TimePoint time, EventType type,
                         std::string_view source,
                         std::initializer_list<Field> fields) {
  WAM_EXPECTS(fields.size() <= Event::kMaxFields);
  Event* e = nullptr;
  if (ring_.size() < kCapacity) {
    e = &ring_.emplace_back();
  } else {
    e = &ring_[oldest_];
    oldest_ = (oldest_ + 1) % kCapacity;
  }
  e->time = time;
  e->seq = ++published_;
  e->type = type;
  e->source = source;
  e->field_count = static_cast<std::uint8_t>(fields.size());
  std::copy(fields.begin(), fields.end(), e->field_slots.begin());
}

const std::deque<Event>& EventTimeline::events() const {
  const auto oldest = static_cast<std::ptrdiff_t>(oldest_);
  std::rotate(ring_.begin(), ring_.begin() + oldest, ring_.end());
  oldest_ = 0;
  return ring_;
}

std::size_t EventTimeline::count(EventType t) const {
  return static_cast<std::size_t>(std::count_if(
      ring_.begin(), ring_.end(), [t](const Event& e) { return e.type == t; }));
}

std::string EventTimeline::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const auto& e : events()) {
    if (!first) out += ',';
    first = false;
    out += e.to_json();
  }
  out += ']';
  return out;
}

}  // namespace wam::obs
