// Wire format v2: compact STATE/BALANCE/ALLOC bodies (per-message name
// table + varint indices). Pins round-trips, the cross-process determinism
// of the encoded bytes (sorted by NAME, never by process-local GroupId),
// rejection of the retired v1 codes, the size win over the v1 layout, and
// the per-thread decode memo: a hit must give exactly what a fresh decode
// gives, and malformed input must throw exactly as without the memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

namespace wam::wackamole {
namespace {

StateMsgV2 sample_state() {
  StateMsgV2 m;
  m.view = ViewTag{7, 0x0a000001, 42};
  m.mature = true;
  m.weight = 3;
  // Overlapping lists: the name table must dedup across all three.
  m.owned = {intern_group("vip-alpha"), intern_group("vip-beta"),
             intern_group("vip-gamma")};
  m.preferred = {intern_group("vip-beta"), intern_group("vip-delta")};
  m.quarantined = {intern_group("vip-alpha")};
  return m;
}

BalanceMsgV2 sample_balance() {
  BalanceMsgV2 m;
  m.view = ViewTag{9, 0x0a000002, 5};
  // Two distinct owners across four groups: the owner table dedupes.
  m.allocation = {
      {intern_group("vip-alpha"), {0x0a000001u, 1u}},
      {intern_group("vip-beta"), {0x0a000002u, 2u}},
      {intern_group("vip-delta"), {0x0a000001u, 1u}},
      {intern_group("vip-gamma"), {0x0a000002u, 2u}},
  };
  return m;
}

TEST(WamWireV2, StateRoundTrips) {
  auto m = sample_state();
  auto d = decode_state_v2(encode_state_v2(m));
  EXPECT_EQ(d.view, m.view);
  EXPECT_EQ(d.mature, m.mature);
  EXPECT_EQ(d.weight, m.weight);
  EXPECT_EQ(d.owned, m.owned);
  EXPECT_EQ(d.preferred, m.preferred);
  EXPECT_EQ(d.quarantined, m.quarantined);
}

TEST(WamWireV2, BalanceAndAllocRoundTrip) {
  auto m = sample_balance();
  auto db = decode_balance_v2(encode_balance_v2(m));
  EXPECT_EQ(db.view, m.view);
  EXPECT_EQ(db.allocation, m.allocation);
  auto da = decode_alloc_v2(encode_alloc_v2(m));
  EXPECT_EQ(da.allocation, m.allocation);
}

TEST(WamWireV2, PeekTypeSeesTheNewCodes) {
  EXPECT_EQ(peek_type(encode_state_v2(sample_state())), WamMsgType::kStateV2);
  EXPECT_EQ(peek_type(encode_balance_v2(sample_balance())),
            WamMsgType::kBalanceV2);
  EXPECT_EQ(peek_type(encode_alloc_v2(sample_balance())),
            WamMsgType::kAllocV2);
}

// The retired v1 STATE (1), BALANCE (2) and ALLOC (4) codes are reserved:
// a peer still sending them is rejected at the type byte, never misparsed,
// while the codes around them (ARP_SHARE 3, NOTIFY 5) stay valid.
TEST(WamWireV2, ReservedV1CodesAreRejected) {
  for (std::uint8_t code : {1, 2, 4}) {
    util::Bytes bytes{code, 0, 0, 0, 0};
    EXPECT_THROW((void)peek_type(bytes), util::DecodeError) << int{code};
  }
  EXPECT_EQ(peek_type(util::Bytes{3}), WamMsgType::kArpShare);
  EXPECT_EQ(peek_type(util::Bytes{5}), WamMsgType::kNotify);
  EXPECT_THROW((void)peek_type(util::Bytes{0}), util::DecodeError);
  EXPECT_THROW((void)peek_type(util::Bytes{9}), util::DecodeError);
}

// The encoded bytes must not depend on intern order (GroupIds are
// process-local and vary between processes): the name table lists names in
// first-appearance order over the message's LISTS, a pure function of the
// message content.
TEST(WamWireV2, BytesAreInternOrderIndependent) {
  // These names are interned here for the first time, in reverse name
  // order, giving them ids in the "wrong" relative order.
  auto z = intern_group("zz-order-probe");
  auto a = intern_group("aa-order-probe");
  ASSERT_LT(z, a) << "test setup: zz must have the smaller id";

  StateMsgV2 m;
  m.view = ViewTag{1, 0x0a000001, 1};
  m.owned = {a, z};
  auto bytes = encode_state_v2(m);

  // Decode resolves through the name table: ids come back in the order the
  // LIST encodes, which preserves the sender's list order.
  auto d = decode_state_v2(bytes);
  EXPECT_EQ(d.owned, m.owned);

  // The name-table region follows list order, not id order: "aa..."
  // appears first in the raw bytes even though its id is larger. Each
  // name appears exactly once.
  std::string raw(bytes.begin(), bytes.end());
  auto pos_a = raw.find("aa-order-probe");
  auto pos_z = raw.find("zz-order-probe");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_z, std::string::npos);
  EXPECT_LT(pos_a, pos_z);
  EXPECT_EQ(raw.find("aa-order-probe", pos_a + 1), std::string::npos);

  // Same content re-encoded -> identical bytes (what the simulation's
  // byte-identical replay checks rely on).
  EXPECT_EQ(encode_state_v2(m), bytes);
}

// Size of the retired v1 bodies, which repeated a u32-length-prefixed
// name per entry: STATE = type, tag, mature, u32 weight, then three
// u32-counted name lists; BALANCE = type, tag, u32 count, then per entry
// a name and two u32 owner fields.
constexpr std::size_t kV1Head = 1 + 8 + 4 + 8;

std::size_t v1_names_size(const std::vector<GroupId>& ids) {
  std::size_t total = 4;
  for (auto id : ids) total += 4 + group_name(id).size();
  return total;
}

std::size_t v1_state_size(const StateMsgV2& m) {
  return kV1Head + 1 + 4 + v1_names_size(m.owned) +
         v1_names_size(m.preferred) + v1_names_size(m.quarantined);
}

std::size_t v1_balance_size(const BalanceMsgV2& m) {
  std::size_t total = kV1Head + 4;
  for (const auto& [id, owner] : m.allocation) {
    total += 4 + group_name(id).size() + 8;
  }
  return total;
}

TEST(WamWireV2, CompactBodiesBeatV1AtScale) {
  // 64 members x 512 groups with realistic heap-allocated names: the
  // regime the compact format exists for.
  StateMsgV2 s;
  s.view = ViewTag{3, 0x0a000001, 7};
  BalanceMsgV2 b;
  b.view = s.view;
  for (int i = 0; i < 512; ++i) {
    auto id = intern_group("customer-vip-group-10-20-" + std::to_string(i) +
                           ".production.example.net");
    s.owned.push_back(id);
    s.preferred.push_back(id);
    s.quarantined.push_back(id);
    b.allocation.emplace_back(
        id, std::make_pair(0x0a000000u + (i % 64), 1u + (i % 64)));
  }
  auto v1_state = v1_state_size(s);
  auto v2_state = encode_state_v2(s).size();
  EXPECT_LT(v2_state, v1_state / 2)
      << "v2 STATE must at least halve the duplicated-name v1 body";
  auto v1_balance = v1_balance_size(b);
  auto v2_balance = encode_balance_v2(b).size();
  EXPECT_LT(v2_balance, v1_balance);
}

TEST(WamWireV2, EmptyListsRoundTrip) {
  StateMsgV2 s;
  s.view = ViewTag{2, 0x0a000004, 1};
  s.mature = false;
  s.weight = 1;
  auto d = decode_state_v2(encode_state_v2(s));
  EXPECT_TRUE(d.owned.empty());
  EXPECT_TRUE(d.preferred.empty());
  EXPECT_TRUE(d.quarantined.empty());

  BalanceMsgV2 b;
  b.view = s.view;
  EXPECT_TRUE(decode_balance_v2(encode_balance_v2(b)).allocation.empty());
}

// ---- decode memo ----------------------------------------------------------

void expect_same_state(const StateMsgV2& a, const StateMsgV2& b) {
  EXPECT_EQ(a.view, b.view);
  EXPECT_EQ(a.mature, b.mature);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.owned, b.owned);
  EXPECT_EQ(a.preferred, b.preferred);
  EXPECT_EQ(a.quarantined, b.quarantined);
}

/// Offset of the first byte of `name` in `bytes` (it must be present).
std::size_t offset_of(const util::Bytes& bytes, const std::string& name) {
  auto it = std::search(bytes.begin(), bytes.end(), name.begin(), name.end());
  EXPECT_NE(it, bytes.end());
  return static_cast<std::size_t>(it - bytes.begin());
}

TEST(WamWireV2Memo, EqualBytesGiveAnEqualMessage) {
  auto m = sample_state();
  m.view = ViewTag{71, 0x0a000009, 1};
  const auto bytes = encode_state_v2(m);
  const auto first = decode_state_v2(bytes);
  const auto before = decode_memo_stats();
  const auto again = decode_state_v2(bytes);
  EXPECT_EQ(decode_memo_stats().hits, before.hits + 1);
  expect_same_state(again, first);
  expect_same_state(again, m);

  // Same name table under a new view tag: still one decode of the names.
  auto next = m;
  next.view = ViewTag{72, 0x0a000009, 2};
  const auto hits = decode_memo_stats().hits;
  expect_same_state(decode_state_v2(encode_state_v2(next)), next);
  EXPECT_EQ(decode_memo_stats().hits, hits + 1);

  auto b = sample_balance();
  const auto bb = encode_balance_v2(b);
  (void)decode_balance_v2(bb);
  const auto bal_hits = decode_memo_stats().hits;
  EXPECT_EQ(decode_balance_v2(bb).allocation, b.allocation);
  // ALLOC shares BALANCE's body, so its memo entry too.
  EXPECT_EQ(decode_alloc_v2(encode_alloc_v2(b)).allocation, b.allocation);
  EXPECT_EQ(decode_memo_stats().hits, bal_hits + 2);
}

TEST(WamWireV2Memo, OneChangedNameByteForcesAFreshDecode) {
  StateMsgV2 m;
  m.view = ViewTag{73, 0x0a000001, 1};
  m.owned = {intern_group("memo-one-a"), intern_group("memo-one-b")};
  auto bytes = encode_state_v2(m);
  (void)decode_state_v2(bytes);  // cached

  bytes[offset_of(bytes, "memo-one-b") + 9] = 'c';  // "memo-one-c"
  const auto misses = decode_memo_stats().misses;
  const auto d = decode_state_v2(bytes);
  EXPECT_EQ(decode_memo_stats().misses, misses + 1);
  ASSERT_EQ(d.owned.size(), 2u);
  EXPECT_EQ(group_name(d.owned[0]), "memo-one-a");
  EXPECT_EQ(group_name(d.owned[1]), "memo-one-c");

  BalanceMsgV2 b;
  b.view = m.view;
  b.allocation = {{intern_group("memo-one-a"), {1u, 1u}}};
  auto bb = encode_balance_v2(b);
  (void)decode_balance_v2(bb);
  bb[offset_of(bb, "memo-one-a") + 9] = 'z';
  const auto d2 = decode_balance_v2(bb);
  ASSERT_EQ(d2.allocation.size(), 1u);
  EXPECT_EQ(group_name(d2.allocation[0].first), "memo-one-z");
}

TEST(WamWireV2Memo, MalformedBodiesThrowWhenAPrefixIsCached) {
  const auto state = encode_state_v2(sample_state());
  const auto balance = encode_balance_v2(sample_balance());
  (void)decode_state_v2(state);      // both cached
  (void)decode_balance_v2(balance);

  for (const auto* full : {&state, &balance}) {
    const bool is_state = full == &state;
    auto decode = [is_state](const util::Bytes& b) {
      if (is_state) {
        (void)decode_state_v2(b);
      } else {
        (void)decode_balance_v2(b);
      }
    };
    // Every truncation, including ones that end inside the cached section.
    for (std::size_t n = 0; n < full->size(); ++n) {
      util::Bytes cut(full->begin(),
                      full->begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_THROW(decode(cut), util::DecodeError) << n;
    }
    // The cached section followed by trailing garbage.
    auto longer = *full;
    longer.push_back(0);
    EXPECT_THROW(decode(longer), util::DecodeError);
  }

  // A valid cached name table followed by an out-of-range list index.
  auto bad_index = state;
  bad_index.back() = 0x7f;
  EXPECT_THROW((void)decode_state_v2(bad_index), util::DecodeError);
  // The intact bodies still decode from the memo afterwards.
  expect_same_state(decode_state_v2(state), sample_state());
  EXPECT_EQ(decode_balance_v2(balance).allocation,
            sample_balance().allocation);
}

TEST(WamWireV2Memo, ColdBodiesBeyondTheCapacityStillDecode) {
  // More distinct tables than the memo holds: every one decodes right, and
  // the oldest are evicted rather than mistaken for a newer entry.
  std::vector<StateMsgV2> msgs;
  for (int i = 0; i < 80; ++i) {
    StateMsgV2 m;
    m.view = ViewTag{80, 0x0a000001, static_cast<std::uint64_t>(i)};
    m.owned = {intern_group("cold-" + std::to_string(i)),
               intern_group("cold-shared")};
    msgs.push_back(m);
  }
  for (int round = 0; round < 2; ++round) {
    for (const auto& m : msgs) {
      expect_same_state(decode_state_v2(encode_state_v2(m)), m);
    }
  }
}

}  // namespace
}  // namespace wam::wackamole
