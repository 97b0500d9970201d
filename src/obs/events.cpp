#include "obs/events.hpp"

#include "obs/json.hpp"

namespace wam::obs {

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kViewInstalled: return "ViewInstalled";
    case EventType::kStateTransition: return "StateTransition";
    case EventType::kVipAcquired: return "VipAcquired";
    case EventType::kVipReleased: return "VipReleased";
    case EventType::kBalanceRound: return "BalanceRound";
    case EventType::kReallocation: return "Reallocation";
    case EventType::kDisconnect: return "Disconnect";
    case EventType::kArpAnnounce: return "ArpAnnounce";
    case EventType::kFaultInjected: return "FaultInjected";
    case EventType::kFaultHealed: return "FaultHealed";
    case EventType::kArpConflict: return "ArpConflict";
    case EventType::kGroupFenced: return "GroupFenced";
    case EventType::kGroupUnfenced: return "GroupUnfenced";
    case EventType::kPanicRelease: return "PanicRelease";
    case EventType::kCorruptionDetected: return "CorruptionDetected";
    case EventType::kSelfHeal: return "SelfHeal";
  }
  return "?";
}

const std::string* Event::field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Event::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("seq").value(seq);
  w.key("t_ns").value(
      static_cast<std::int64_t>(time.time_since_epoch().count()));
  w.key("type").value(event_type_name(type));
  w.key("source").value(source);
  w.key("fields").begin_object();
  for (const auto& [k, v] : fields) w.key(k).value(v);
  w.end_object();
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------------ bus ----

void EventBus::Subscription::reset() {
  if (auto table = table_.lock()) table->drop(id_);
  table_.reset();
}

void EventBus::Table::drop(std::uint64_t id) {
  for (auto& e : entries) {
    if (e.id == id && e.dropped_at == 0) {
      e.dropped_at = published;
      any_dropped = true;
    }
  }
  settle();
}

void EventBus::Table::settle() {
  if (delivering > 0 || !any_dropped) return;
  std::erase_if(entries, [](const Entry& e) { return e.dropped_at != 0; });
  any_dropped = false;
}

EventBus::EventBus() : handlers_(std::make_shared<Table>()) {}

EventBus::Subscription EventBus::subscribe(Handler handler) {
  Subscription sub;
  sub.table_ = handlers_;
  sub.id_ = next_id_++;
  handlers_->entries.push_back(Table::Entry{sub.id_, std::move(handler), 0});
  return sub;
}

std::size_t EventBus::subscriber_count() const {
  std::size_t n = 0;
  for (const auto& e : handlers_->entries) n += e.dropped_at == 0 ? 1 : 0;
  return n;
}

void EventBus::publish(Event event) {
  Table& table = *handlers_;
  event.seq = ++table.published;
  // The guard erases entries dropped during delivery once the outermost
  // delivery returns, also when a handler throws.
  struct Delivery {
    Table& table;
    explicit Delivery(Table& t) : table(t) { ++table.delivering; }
    ~Delivery() {
      --table.delivering;
      table.settle();
    }
  } delivery(table);
  // Handlers subscribed during this delivery sit past `n` and wait for the
  // next publish.
  const std::size_t n = table.entries.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = table.entries[i];
    if (e.dropped_at == 0 || event.seq <= e.dropped_at) e.handler(event);
  }
}

// ------------------------------------------------------------- timeline ----

EventTimeline::EventTimeline(EventBus& bus, std::size_t capacity)
    : capacity_(capacity) {
  sub_ = bus.subscribe([this](const Event& e) {
    events_.push_back(e);
    if (events_.size() > capacity_) {
      events_.pop_front();
      ++dropped_;
    }
  });
}

std::size_t EventTimeline::count(EventType t) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.type == t) ++n;
  }
  return n;
}

std::size_t EventTimeline::count(EventType t,
                                 std::string_view source_prefix) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.type != t) continue;
    if (e.source == source_prefix) {
      ++n;
    } else if (e.source.size() > source_prefix.size() &&
               e.source.compare(0, source_prefix.size(), source_prefix) == 0 &&
               e.source[source_prefix.size()] == '/') {
      ++n;
    }
  }
  return n;
}

std::string EventTimeline::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out += ',';
    first = false;
    out += e.to_json();
  }
  out += ']';
  return out;
}

}  // namespace wam::obs
