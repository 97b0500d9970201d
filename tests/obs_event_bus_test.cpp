// EventBus + EventTimeline: subscription lifetimes, sequence stamping,
// bounded recording and the deterministic JSON export.
#include "obs/events.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace wam::obs {
namespace {

Event make_event(std::int64_t t_ns, EventType type, std::string source) {
  Event e;
  e.time = sim::TimePoint(sim::Duration(t_ns));
  e.type = type;
  e.source = std::move(source);
  return e;
}

TEST(EventBus, DeliversToSubscribersAndStampsSequence) {
  EventBus bus;
  std::vector<std::uint64_t> seqs;
  auto sub = bus.subscribe([&](const Event& e) { seqs.push_back(e.seq); });
  bus.publish(make_event(10, EventType::kVipAcquired, "wam/s1"));
  bus.publish(make_event(20, EventType::kVipReleased, "wam/s1"));
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 1u);
  EXPECT_EQ(seqs[1], 2u);
  EXPECT_EQ(bus.published(), 2u);
}

TEST(EventBus, SubscriptionTokenDetachesOnResetAndDestruction) {
  EventBus bus;
  int calls = 0;
  {
    auto sub = bus.subscribe([&](const Event&) { ++calls; });
    EXPECT_TRUE(sub.active());
    bus.publish(make_event(0, EventType::kDisconnect, "wam/s1"));
    EXPECT_EQ(calls, 1);
  }  // token destroyed
  bus.publish(make_event(1, EventType::kDisconnect, "wam/s1"));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);

  auto sub = bus.subscribe([&](const Event&) { ++calls; });
  sub.reset();
  EXPECT_FALSE(sub.active());
  bus.publish(make_event(2, EventType::kDisconnect, "wam/s1"));
  EXPECT_EQ(calls, 1);
}

TEST(EventBus, TokenMayOutliveTheBus) {
  EventBus::Subscription sub;
  {
    EventBus bus;
    sub = bus.subscribe([](const Event&) {});
    EXPECT_TRUE(sub.active());
  }
  EXPECT_FALSE(sub.active());
  sub.reset();  // must not crash
}

TEST(EventBus, HandlerMayUnsubscribeDuringDelivery) {
  EventBus bus;
  int calls = 0;
  EventBus::Subscription sub;
  sub = bus.subscribe([&](const Event&) {
    ++calls;
    sub.reset();  // unsubscribe from inside the callback
  });
  bus.publish(make_event(0, EventType::kBalanceRound, "wam/s1"));
  bus.publish(make_event(1, EventType::kBalanceRound, "wam/s1"));
  EXPECT_EQ(calls, 1);
}

TEST(EventBus, SubscribeAndUnsubscribeDuringDeliveryTakeEffectNextPublish) {
  EventBus bus;
  std::vector<std::string> calls;
  EventBus::Subscription first;
  EventBus::Subscription second;
  EventBus::Subscription late;
  first = bus.subscribe([&](const Event& e) {
    calls.push_back("first" + std::to_string(e.seq));
    if (e.seq == 1) {
      // Subscribe a new handler and drop a later one, mid-delivery.
      late = bus.subscribe([&](const Event& ev) {
        calls.push_back("late" + std::to_string(ev.seq));
      });
      second.reset();
    }
  });
  second = bus.subscribe([&](const Event& e) {
    calls.push_back("second" + std::to_string(e.seq));
  });
  EXPECT_EQ(bus.subscriber_count(), 2u);
  bus.publish(make_event(0, EventType::kBalanceRound, "wam/s1"));
  // The dropped handler still saw event 1; the new one did not.
  EXPECT_EQ(calls, (std::vector<std::string>{"first1", "second1"}));
  EXPECT_EQ(bus.subscriber_count(), 2u);
  calls.clear();
  bus.publish(make_event(1, EventType::kBalanceRound, "wam/s1"));
  EXPECT_EQ(calls, (std::vector<std::string>{"first2", "late2"}));
}

TEST(EventBus, HandlerMayDropItselfAndPublishReentrantly) {
  EventBus bus;
  std::vector<std::uint64_t> seen;
  EventBus::Subscription once;
  once = bus.subscribe([&](const Event& e) {
    seen.push_back(e.seq);
    once.reset();
    // A nested publish starts after the drop, so it skips this handler.
    if (e.seq == 1) bus.publish(make_event(1, EventType::kDisconnect, "x"));
  });
  auto steady =
      bus.subscribe([&](const Event& e) { seen.push_back(100 + e.seq); });
  bus.publish(make_event(0, EventType::kDisconnect, "x"));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 102, 101}));
  EXPECT_EQ(bus.subscriber_count(), 1u);
  seen.clear();
  bus.publish(make_event(2, EventType::kDisconnect, "x"));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{103}));
}

TEST(EventTimeline, RecordsBoundedAndCounts) {
  EventBus bus;
  EventTimeline timeline(bus, 3);
  for (int i = 0; i < 5; ++i) {
    bus.publish(make_event(i, EventType::kViewInstalled, "gcs/s1"));
  }
  bus.publish(make_event(5, EventType::kVipAcquired, "wam/s2"));
  EXPECT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline.dropped(), 3u);
  EXPECT_EQ(timeline.count(EventType::kViewInstalled), 2u);
  EXPECT_EQ(timeline.count(EventType::kVipAcquired), 1u);
  EXPECT_EQ(timeline.count(EventType::kVipAcquired, "wam"), 1u);
  EXPECT_EQ(timeline.count(EventType::kVipAcquired, "wam/s2"), 1u);
  EXPECT_EQ(timeline.count(EventType::kVipAcquired, "wam/s"), 0u);
  timeline.clear();
  EXPECT_EQ(timeline.size(), 0u);
  EXPECT_EQ(timeline.dropped(), 0u);
}

TEST(EventTimeline, JsonExportIsDeterministicAndParseable) {
  EventBus bus;
  EventTimeline timeline(bus);
  auto e = make_event(1500000, EventType::kVipAcquired, "wam/s2");
  e.fields = {{"group", "10.0.0.100"}};
  bus.publish(e);
  bus.publish(make_event(2000000, EventType::kStateTransition, "wam/s1"));

  auto json = timeline.to_json();
  EXPECT_EQ(json, timeline.to_json());  // byte-identical re-export

  auto doc = parse_json(json);
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 2u);
  const auto& first = doc.array[0];
  EXPECT_EQ(first.at("seq").as_u64(), 1u);
  EXPECT_EQ(first.at("t_ns").as_u64(), 1500000u);
  EXPECT_EQ(first.at("type").string, "VipAcquired");
  EXPECT_EQ(first.at("source").string, "wam/s2");
  EXPECT_EQ(first.at("fields").at("group").string, "10.0.0.100");
}

TEST(Event, FieldLookup) {
  auto e = make_event(0, EventType::kReallocation, "wam/s1");
  e.fields = {{"groups", "4"}, {"mode", "deterministic"}};
  ASSERT_NE(e.field("mode"), nullptr);
  EXPECT_EQ(*e.field("mode"), "deterministic");
  EXPECT_EQ(e.field("absent"), nullptr);
}

TEST(EventTypeName, CoversEveryType) {
  EXPECT_STREQ(event_type_name(EventType::kViewInstalled), "ViewInstalled");
  EXPECT_STREQ(event_type_name(EventType::kStateTransition),
               "StateTransition");
  EXPECT_STREQ(event_type_name(EventType::kVipAcquired), "VipAcquired");
  EXPECT_STREQ(event_type_name(EventType::kVipReleased), "VipReleased");
  EXPECT_STREQ(event_type_name(EventType::kBalanceRound), "BalanceRound");
  EXPECT_STREQ(event_type_name(EventType::kReallocation), "Reallocation");
  EXPECT_STREQ(event_type_name(EventType::kDisconnect), "Disconnect");
  EXPECT_STREQ(event_type_name(EventType::kArpAnnounce), "ArpAnnounce");
  EXPECT_STREQ(event_type_name(EventType::kFaultInjected), "FaultInjected");
  EXPECT_STREQ(event_type_name(EventType::kFaultHealed), "FaultHealed");
}

}  // namespace
}  // namespace wam::obs
