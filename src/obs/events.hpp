// Structured cluster events: the typed counterpart of grepping the log.
//
// Protocol layers emit Events — ViewInstalled, StateTransition,
// VipAcquired, VipReleased, BalanceRound, Disconnect, ... — into one
// EventTimeline per simulation. Every event carries the virtual timestamp
// at which it happened, a source scope ("wam/s2", "gcs/s1", "scenario"),
// and up to four ordered key/value fields, so the availability analyses of
// the paper (Figure 5's interruption timeline, Table 1's detection
// windows) can be computed from precise, machine-readable timelines
// instead of log scraping.
//
// An event is stored as values: a field holds an integer, a view of a
// string that outlives the timeline, an address, or an owned string for
// text made at the call site. Nothing is formatted until the timeline is
// read, and an emit into a full timeline reuses the oldest event's slot.
// The export is deterministic JSON (two runs with the same seed produce
// byte-identical documents), with every field value rendered as a string.
#pragma once

#include <array>
#include <concepts>
#include <deque>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "net/address.hpp"
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
  kCount,               // number of event types, not a type
};

[[nodiscard]] const char* event_type_name(EventType t);

/// A view of a string that outlives the timeline: an interned group name
/// (wackamole::group_name) or a name from Observability::intern(). The
/// wrapper is what lets a view into a field; a bare std::string_view does
/// not convert, so a view of a temporary cannot slip in.
struct Interned {
  std::string_view text;
};

/// One field value. Every kind renders as a JSON string.
class Value {
 public:
  Value() = default;
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Value(T v) : v_(static_cast<std::int64_t>(v)) {}  // NOLINT: implicit
  /// A string literal or other static string.
  Value(const char* literal) : v_(std::string_view(literal)) {}  // NOLINT
  Value(Interned s) : v_(s.text) {}                               // NOLINT
  Value(net::Ipv4Address a) : v_(a) {}                            // NOLINT
  /// Text made at the call site (`view`, `detail`, `checks`, a server
  /// name): the event keeps it, immutable, shared by copies of the event.
  Value(std::string owned)  // NOLINT
      : v_(std::make_shared<const std::string>(std::move(owned))) {}

  /// The value as it appears in the JSON export (unescaped).
  [[nodiscard]] std::string str() const;

 private:
  // The owned kind is a pointer so that every kind fits in 16 bytes.
  std::variant<std::int64_t, std::string_view, net::Ipv4Address,
               std::shared_ptr<const std::string>>
      v_;
};

struct Field {
  const char* key = "";  // a string literal
  Value value;
};

struct Event {
  static constexpr std::size_t kMaxFields = 4;

  sim::TimePoint time{};  // virtual timestamp
  std::uint64_t seq = 0;  // 1-based emit order, stamped by the timeline
  std::string_view source;  // metric-style scope, interned
  EventType type = EventType::kViewInstalled;
  std::uint8_t field_count = 0;
  std::array<Field, kMaxFields> field_slots{};

  /// The fields in emit order (which is export order).
  [[nodiscard]] std::span<const Field> fields() const {
    return {field_slots.data(), field_count};
  }
  /// The rendered value of `key`, or nullopt when the event has no such
  /// field.
  [[nodiscard]] std::optional<std::string> field(std::string_view key) const;
  /// One deterministic JSON object, e.g.
  /// {"seq":7,"t_ns":1500000,"type":"VipAcquired","source":"wam/s2",
  ///  "fields":{"group":"10.0.0.100"}}
  [[nodiscard]] std::string to_json() const;
};

/// The simulation's one event recorder: a ring holding the newest
/// kCapacity events.
class EventTimeline {
 public:
  static constexpr std::size_t kCapacity = 8192;

  /// Stamp the next sequence number and record the event, evicting the
  /// oldest one when the ring is full. `source` must outlive the timeline
  /// (a literal or an Observability::intern() result).
  void emit(sim::TimePoint time, EventType type, std::string_view source,
            std::initializer_list<Field> fields);

  /// The recorded events, oldest first. Reading rotates the ring in place
  /// so that it starts at the oldest event; the order does not change.
  [[nodiscard]] const std::deque<Event>& events() const;
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Every event ever emitted, evicted ones included.
  [[nodiscard]] std::uint64_t published() const { return published_; }
  /// Events evicted by the capacity bound.
  [[nodiscard]] std::uint64_t dropped() const {
    return published_ - ring_.size();
  }
  [[nodiscard]] std::size_t count(EventType t) const;

  /// Deterministic JSON array of Event::to_json() objects.
  [[nodiscard]] std::string to_json() const;

 private:
  // Small blocks, not one vector: a 1.3 MB block is mmapped, and freeing
  // it raises glibc's dynamic mmap threshold, which moves later large
  // allocations onto the heap and made a process's peak RSS depend on how
  // many worlds it had built before. Once full, slots are overwritten in
  // place, so a steady-state emit allocates nothing.
  mutable std::deque<Event> ring_;
  mutable std::size_t oldest_ = 0;  // slot of the oldest event once full
  std::uint64_t published_ = 0;
};

}  // namespace wam::obs
