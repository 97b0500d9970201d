// EventTimeline: sequence stamping, the capacity bound, field lookup and
// the deterministic JSON export of every value kind.
#include "obs/events.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/observability.hpp"

namespace wam::obs {
namespace {

sim::TimePoint at(std::int64_t t_ns) {
  return sim::TimePoint(sim::Duration(t_ns));
}

TEST(EventTimeline, RecordsBoundedAndCounts) {
  EventTimeline timeline;
  const std::size_t n = EventTimeline::kCapacity + 3;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    timeline.emit(at(static_cast<std::int64_t>(i)), EventType::kViewInstalled,
                  "gcs/s1", {{"i", i}});
  }
  timeline.emit(at(static_cast<std::int64_t>(n)), EventType::kVipAcquired,
                "wam/s2", {});
  EXPECT_EQ(timeline.size(), EventTimeline::kCapacity);
  EXPECT_EQ(timeline.published(), n);
  EXPECT_EQ(timeline.dropped(), 3u);
  EXPECT_EQ(timeline.count(EventType::kViewInstalled),
            EventTimeline::kCapacity - 1);
  EXPECT_EQ(timeline.count(EventType::kVipAcquired), 1u);
  // Oldest first, the three oldest evicted, sequence numbers 1-based and
  // consecutive across the ring's wrap.
  const auto& events = timeline.events();
  ASSERT_EQ(events.size(), EventTimeline::kCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 4) << i;
  }
  EXPECT_EQ(*events.front().field("i"), "3");
  EXPECT_EQ(events.back().type, EventType::kVipAcquired);
  // Reading leaves the order alone; emitting after a read continues it.
  timeline.emit(at(0), EventType::kDisconnect, "wam/s1", {});
  EXPECT_EQ(timeline.events().front().seq, 5u);
  EXPECT_EQ(timeline.events().back().seq, n + 1);
}

TEST(EventTimeline, JsonExportIsDeterministicAndParseable) {
  Observability obs;
  obs.emit(at(1500000), EventType::kVipAcquired, "wam/s2",
           {{"group", Interned{"10.0.0.100"}}});
  obs.emit(at(2000000), EventType::kStateTransition, "wam/s1");

  auto json = obs.bus.to_json();
  EXPECT_EQ(json, obs.bus.to_json());  // byte-identical re-export

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

TEST(EventTimeline, EveryValueKindRendersAsAJsonString) {
  Observability obs;
  // The source is interned, so the caller's string may die at once.
  const std::string_view scope = obs.intern(std::string("ip/s3"));
  EXPECT_EQ(obs.intern("ip/s3").data(), scope.data());
  obs.emit(at(7), EventType::kArpConflict, scope,
           {{"int", -12},
            {"literal", "partition"},
            {"interned", Interned{"10.0.0.100"}},
            {"address", net::Ipv4Address(10, 0, 0, 7)}});
  obs.emit(at(8), EventType::kCorruptionDetected, "gcs/s1",
           {{"detail", std::string("say \"hi\"\n")}});
  EXPECT_EQ(obs.bus.events()[0].to_json(),
            R"({"seq":1,"t_ns":7,"type":"ArpConflict","source":"ip/s3",)"
            R"("fields":{"int":"-12","literal":"partition",)"
            R"("interned":"10.0.0.100","address":"10.0.0.7"}})");
  EXPECT_EQ(obs.bus.events()[1].to_json(),
            R"({"seq":2,"t_ns":8,"type":"CorruptionDetected",)"
            R"("source":"gcs/s1","fields":{"detail":"say \"hi\"\n"}})");
}

TEST(Event, FieldLookup) {
  EventTimeline timeline;
  timeline.emit(at(0), EventType::kReallocation, "wam/s1",
                {{"groups", 4}, {"mode", "deterministic"}});
  const Event& e = timeline.events().front();
  ASSERT_TRUE(e.field("mode").has_value());
  EXPECT_EQ(*e.field("mode"), "deterministic");
  EXPECT_EQ(*e.field("groups"), "4");
  EXPECT_FALSE(e.field("absent").has_value());
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
  EXPECT_STREQ(event_type_name(EventType::kArpConflict), "ArpConflict");
  EXPECT_STREQ(event_type_name(EventType::kGroupFenced), "GroupFenced");
  EXPECT_STREQ(event_type_name(EventType::kGroupUnfenced), "GroupUnfenced");
  EXPECT_STREQ(event_type_name(EventType::kPanicRelease), "PanicRelease");
  EXPECT_STREQ(event_type_name(EventType::kCorruptionDetected),
               "CorruptionDetected");
  EXPECT_STREQ(event_type_name(EventType::kSelfHeal), "SelfHeal");
}

}  // namespace
}  // namespace wam::obs
