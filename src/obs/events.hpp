// Structured cluster events: the typed counterpart of grepping the log.
//
// Protocol layers publish Events — ViewInstalled, StateTransition,
// VipAcquired, VipReleased, BalanceRound, Disconnect, ... — onto one
// EventBus per simulation. Every event carries the virtual timestamp at
// which it happened, a source scope ("wam/s2", "gcs/s1", "scenario"), and
// an ordered list of string fields, so the availability analyses of the
// paper (Figure 5's interruption timeline, Table 1's detection windows)
// can be computed from precise, machine-readable timelines instead of log
// scraping.
//
// Subscriptions are RAII tokens: dropping the token detaches the handler,
// and a token outliving its bus is harmless (weak reference). The bounded
// EventTimeline is the standard subscriber — it records the most recent
// `capacity` events and exports them as deterministic JSON (two runs with
// the same seed produce byte-identical documents).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace wam::obs {

enum class EventType : std::uint8_t {
  kViewInstalled,    // gcs: a daemon membership view was installed
  kStateTransition,  // wam: RUN/GATHER/IDLE state machine edge
  kVipAcquired,      // wam: a VIP group was bound locally
  kVipReleased,      // wam: a VIP group was unbound locally
  kBalanceRound,     // wam: the representative multicast a balance decision
  kReallocation,     // wam: GATHER completed, table reallocated
  kDisconnect,       // wam: lost the local GCS daemon
  kArpAnnounce,      // ip: gratuitous-ARP/spoofed-reply takeover broadcast
  kFaultInjected,    // scenario: disconnect/partition/crash injected
  kFaultHealed,      // scenario: reconnect/merge/recovery
  kArpConflict,      // ip: duplicate-address probe found another holder
  kGroupFenced,      // wam: OS-op retry budget exhausted, group self-fenced
  kGroupUnfenced,    // wam: quarantine cooldown probe succeeded
  kPanicRelease,     // wam: release_everything() — all groups dropped at once
  kCorruptionDetected,  // wam/gcs: a state audit found corrupted hot state
  kSelfHeal,            // wam/gcs: recovery action taken on a corruption
};

[[nodiscard]] const char* event_type_name(EventType t);

struct Event {
  sim::TimePoint time{};                    // virtual timestamp
  EventType type = EventType::kViewInstalled;
  std::string source;                       // metric-style scope
  /// Ordered key/value payload (insertion order is export order).
  std::vector<std::pair<std::string, std::string>> fields;
  std::uint64_t seq = 0;                    // stamped by the bus

  [[nodiscard]] const std::string* field(std::string_view key) const;
  /// One deterministic JSON object, e.g.
  /// {"seq":7,"t_ns":1500000,"type":"VipAcquired","source":"wam/s2",
  ///  "fields":{"group":"10.0.0.100"}}
  [[nodiscard]] std::string to_json() const;
};

class EventBus {
 public:
  using Handler = std::function<void(const Event&)>;

 private:
  struct Table;

 public:
  /// RAII subscription token (move-only). reset() or destruction detaches
  /// the handler; safe to outlive the bus.
  class Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& other) noexcept { *this = std::move(other); }
    Subscription& operator=(Subscription&& other) noexcept {
      if (this != &other) {
        reset();
        table_ = std::move(other.table_);
        id_ = other.id_;
        other.table_.reset();
      }
      return *this;
    }
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;
    ~Subscription() { reset(); }

    void reset();
    [[nodiscard]] bool active() const { return !table_.expired(); }

   private:
    friend class EventBus;
    std::weak_ptr<Table> table_;
    std::uint64_t id_ = 0;
  };

  EventBus();
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  [[nodiscard]] Subscription subscribe(Handler handler);
  /// Stamp a sequence number and deliver to every subscriber synchronously,
  /// in subscription order. Handlers may subscribe/unsubscribe during
  /// delivery (a handler may drop itself); changes take effect from the
  /// next publish. A handler must not destroy the bus.
  void publish(Event event);

  [[nodiscard]] std::uint64_t published() const {
    return handlers_->published;
  }
  [[nodiscard]] std::size_t subscriber_count() const;

 private:
  /// The handler table. Delivery iterates it in place, by index, over the
  /// entries present when it started. Entries live in a deque, so a
  /// subscribe during delivery appends without moving the handler that is
  /// running, and an unsubscribe during delivery only stamps its entry,
  /// which the outermost delivery erases when it returns.
  struct Table {
    struct Entry {
      std::uint64_t id = 0;
      Handler handler;
      /// Events published up to the drop, 0 while subscribed: events
      /// published before the drop still reach the handler, later ones not.
      std::uint64_t dropped_at = 0;
    };
    std::deque<Entry> entries;  // ascending id
    std::uint64_t published = 0;
    int delivering = 0;  // nesting depth of publish()
    bool any_dropped = false;

    void drop(std::uint64_t id);
    /// Erase dropped entries unless a delivery is running.
    void settle();
  };

  std::shared_ptr<Table> handlers_;
  std::uint64_t next_id_ = 1;
};

/// Bounded recorder: keeps the most recent `capacity` events.
class EventTimeline {
 public:
  explicit EventTimeline(EventBus& bus, std::size_t capacity = 8192);

  [[nodiscard]] const std::deque<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// Events evicted by the capacity bound since the last clear().
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t count(EventType t) const;
  /// Events of type `t` whose source matches `source_prefix` exactly or as
  /// a '/'-delimited prefix.
  [[nodiscard]] std::size_t count(EventType t,
                                  std::string_view source_prefix) const;
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Deterministic JSON array of Event::to_json() objects.
  [[nodiscard]] std::string to_json() const;

 private:
  EventBus::Subscription sub_;
  std::size_t capacity_;
  std::deque<Event> events_;
  std::size_t dropped_ = 0;
};

}  // namespace wam::obs
