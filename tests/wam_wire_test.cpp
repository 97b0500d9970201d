#include "wackamole/wire.hpp"

#include <gtest/gtest.h>

#include "wackamole/group_ids.hpp"

namespace wam::wackamole {
namespace {

// STATE/BALANCE round trips at the name boundary: the names a sender
// interns come back as the same names on the receiver.
TEST(WamWire, StateRoundTrip) {
  StateMsgV2 m;
  m.view = ViewTag{7, 0x0a000001, 3};
  m.mature = true;
  m.owned = {intern_group("a"), intern_group("b")};
  m.preferred = {intern_group("b")};
  m.quarantined = {intern_group("a")};
  auto out = decode_state_v2(encode_state_v2(m));
  EXPECT_EQ(out.view, m.view);
  EXPECT_TRUE(out.mature);
  ASSERT_EQ(out.owned.size(), 2u);
  EXPECT_EQ(group_name(out.owned[0]), "a");
  EXPECT_EQ(group_name(out.owned[1]), "b");
  ASSERT_EQ(out.preferred.size(), 1u);
  EXPECT_EQ(group_name(out.preferred[0]), "b");
  EXPECT_EQ(out.quarantined, m.quarantined);
}

TEST(WamWire, StateEmptyLists) {
  StateMsgV2 m;
  auto out = decode_state_v2(encode_state_v2(m));
  EXPECT_TRUE(out.owned.empty());
  EXPECT_TRUE(out.preferred.empty());
  EXPECT_TRUE(out.quarantined.empty());
  EXPECT_FALSE(out.mature);
}

TEST(WamWire, BalanceRoundTrip) {
  BalanceMsgV2 m;
  m.view = ViewTag{9, 0x0a000002, 1};
  m.allocation = {{intern_group("g1"), {0x0a000001, 1}},
                  {intern_group("g2"), {0x0a000002, 2}}};
  auto out = decode_balance_v2(encode_balance_v2(m));
  EXPECT_EQ(out.view, m.view);
  ASSERT_EQ(out.allocation.size(), 2u);
  EXPECT_EQ(group_name(out.allocation[0].first), "g1");
  EXPECT_EQ(out.allocation[0].second.first, 0x0a000001u);
  EXPECT_EQ(out.allocation[1].second.second, 2u);
}

TEST(WamWire, ArpShareRoundTrip) {
  ArpShareMsg m;
  m.ips = {1, 2, 0xffffffff};
  auto out = decode_arp_share(encode_arp_share(m));
  EXPECT_EQ(out.ips, m.ips);
}

TEST(WamWire, NotifyRoundTrip) {
  NotifyMsg m;
  m.view = ViewTag{11, 0x0a000003, 6};
  m.group = "vip4";
  m.fenced = true;
  m.cooldown_ms = 30000;
  m.reason = "injected sticky: acquire vip4";
  auto out = decode_notify(encode_notify(m));
  EXPECT_EQ(out.view, m.view);
  EXPECT_EQ(out.group, m.group);
  EXPECT_TRUE(out.fenced);
  EXPECT_EQ(out.cooldown_ms, 30000u);
  EXPECT_EQ(out.reason, m.reason);

  m.fenced = false;  // the quarantine-clear direction
  m.reason.clear();
  out = decode_notify(encode_notify(m));
  EXPECT_FALSE(out.fenced);
  EXPECT_TRUE(out.reason.empty());
}

TEST(WamWire, PeekTypeDispatch) {
  EXPECT_EQ(peek_type(encode_state_v2(StateMsgV2{})), WamMsgType::kStateV2);
  EXPECT_EQ(peek_type(encode_balance_v2(BalanceMsgV2{})),
            WamMsgType::kBalanceV2);
  EXPECT_EQ(peek_type(encode_arp_share(ArpShareMsg{})), WamMsgType::kArpShare);
  EXPECT_EQ(peek_type(encode_notify(NotifyMsg{})), WamMsgType::kNotify);
}

TEST(WamWire, PeekRejectsGarbage) {
  EXPECT_THROW((void)peek_type(util::Bytes{}), util::DecodeError);
  EXPECT_THROW((void)peek_type(util::Bytes{0x63}), util::DecodeError);
}

TEST(WamWire, DecodeWrongTypeThrows) {
  auto bytes = encode_state_v2(StateMsgV2{});
  EXPECT_THROW(decode_balance_v2(bytes), util::DecodeError);
}

TEST(WamWire, DecodeTruncatedThrows) {
  StateMsgV2 m;
  m.owned = {intern_group("a")};
  auto bytes = encode_state_v2(m);
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(decode_state_v2(bytes), util::DecodeError);
}

TEST(WamWire, ViewTagOrderingAndEquality) {
  ViewTag a{1, 1, 1};
  ViewTag b{1, 1, 2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, (ViewTag{1, 1, 1}));
}

TEST(WamWire, ViewTagFromGroupView) {
  gcs::GroupView gv;
  gv.daemon_view = gcs::ViewId{5, gcs::DaemonId(net::Ipv4Address(10, 0, 0, 1))};
  gv.group_seq = 12;
  auto tag = ViewTag::of(gv);
  EXPECT_EQ(tag.epoch, 5u);
  EXPECT_EQ(tag.group_seq, 12u);
}

}  // namespace
}  // namespace wam::wackamole
