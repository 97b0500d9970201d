// Wire-decode robustness: no input — truncated, hostile or random — may do
// anything other than decode cleanly or throw util::DecodeError. The chaos
// campaign drops and reorders frames; a decoder that reads past the buffer
// or turns a hostile length prefix into a giant allocation would convert a
// network fault into memory corruption.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

namespace wam::wackamole {
namespace {

struct Codec {
  const char* name;
  util::Bytes encoded;  // a representative well-formed message
  std::function<void(const util::Bytes&)> decode;
};

std::vector<Codec> codecs() {
  const GroupId vip0 = intern_group("vip0");
  const GroupId vip1 = intern_group("vip1");

  StateMsgV2 state;
  state.view = ViewTag{3, 0x0a000001, 9};
  state.mature = true;
  state.owned = {vip0, vip1};
  state.preferred = {vip1};
  state.quarantined = {vip0};

  NotifyMsg notify;
  notify.view = ViewTag{5, 0x0a000003, 4};
  notify.group = "vip0";
  notify.fenced = true;
  notify.cooldown_ms = 30000;
  notify.reason = "injected failure: acquire vip0";

  BalanceMsgV2 balance;
  balance.view = ViewTag{4, 0x0a000002, 2};
  balance.allocation = {{vip0, {0x0a000001, 1}}, {vip1, {0x0a000002, 2}}};

  ArpShareMsg arp;
  arp.ips = {1, 2, 0xdeadbeef};

  return {
      {"arp_share", encode_arp_share(arp),
       [](const util::Bytes& b) { (void)decode_arp_share(b); }},
      {"notify", encode_notify(notify),
       [](const util::Bytes& b) { (void)decode_notify(b); }},
      {"state_v2", encode_state_v2(state),
       [](const util::Bytes& b) { (void)decode_state_v2(b); }},
      {"balance_v2", encode_balance_v2(balance),
       [](const util::Bytes& b) { (void)decode_balance_v2(b); }},
      {"alloc_v2", encode_alloc_v2(balance),
       [](const util::Bytes& b) { (void)decode_alloc_v2(b); }},
  };
}

TEST(WamWireFuzz, EveryTruncatedPrefixThrows) {
  for (const auto& c : codecs()) {
    for (std::size_t len = 0; len < c.encoded.size(); ++len) {
      util::Bytes prefix(c.encoded.begin(),
                         c.encoded.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW(c.decode(prefix), util::DecodeError)
          << c.name << " prefix of " << len << " bytes";
    }
  }
}

TEST(WamWireFuzz, TrailingGarbageThrows) {
  for (const auto& c : codecs()) {
    auto padded = c.encoded;
    padded.push_back(0x00);
    EXPECT_THROW(c.decode(padded), util::DecodeError) << c.name;
    padded.back() = 0xff;
    EXPECT_THROW(c.decode(padded), util::DecodeError) << c.name;
  }
}

// An element count far larger than the remaining bytes must be rejected
// up front, not fed to reserve()/push_back until memory runs out.
TEST(WamWireFuzz, OversizedCountsAreRejected) {
  {
    util::ByteWriter w;  // ARP share claiming 2^32-1 addresses
    w.u8(static_cast<std::uint8_t>(WamMsgType::kArpShare));
    w.u32(0xffffffff);
    EXPECT_THROW((void)decode_arp_share(w.take()), util::DecodeError);
  }
  {
    util::ByteWriter w;  // STATE with an implausible name-table count
    w.u8(static_cast<std::uint8_t>(WamMsgType::kStateV2));
    w.u64(1);  // view tag
    w.u32(0x0a000001);
    w.u64(1);
    w.boolean(true);
    w.varint(1);           // weight
    w.varint(0x10000000);  // 268M names in an empty remainder
    EXPECT_THROW((void)decode_state_v2(w.take()), util::DecodeError);
  }
  {
    util::ByteWriter w;  // BALANCE with an implausible owner-table count
    w.u8(static_cast<std::uint8_t>(WamMsgType::kBalanceV2));
    w.u64(1);
    w.u32(0x0a000001);
    w.u64(1);
    w.varint(0x10000000);
    EXPECT_THROW((void)decode_balance_v2(w.take()), util::DecodeError);
  }
  {
    util::ByteWriter w;  // NOTIFY claiming a 268MB group name
    w.u8(static_cast<std::uint8_t>(WamMsgType::kNotify));
    w.u64(1);  // view tag
    w.u32(0x0a000001);
    w.u64(1);
    w.u32(0x10000000);  // group-name length with an empty remainder
    EXPECT_THROW((void)decode_notify(w.take()), util::DecodeError);
  }
}

// Hand-built v2 corruption: fields the generic mutators rarely hit.
TEST(WamWireFuzz, StateV2WeightWiderThanU32Throws) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WamMsgType::kStateV2));
  w.u64(3);  // view tag
  w.u32(0x0a000001);
  w.u64(9);
  w.boolean(true);
  w.varint(std::uint64_t{1} << 40);  // weight is declared u32 on the wire
  w.varint(0);                       // empty name table
  w.varint(0);                       // owned
  w.varint(0);                       // preferred
  w.varint(0);                       // quarantined
  EXPECT_THROW((void)decode_state_v2(w.take()), util::DecodeError);
}

TEST(WamWireFuzz, StateV2NameTableIndexOutOfRangeThrows) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WamMsgType::kStateV2));
  w.u64(3);
  w.u32(0x0a000001);
  w.u64(9);
  w.boolean(true);
  w.varint(7);       // weight
  w.varint(1);       // name table of one entry...
  w.vstr("vip0");
  w.varint(1);       // ...but the owned list cites entry 5
  w.varint(5);
  w.varint(0);
  w.varint(0);
  EXPECT_THROW((void)decode_state_v2(w.take()), util::DecodeError);
}

TEST(WamWireFuzz, BalanceV2OwnerIndexOutOfRangeThrows) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WamMsgType::kBalanceV2));
  w.u64(4);
  w.u32(0x0a000002);
  w.u64(2);
  w.varint(1);  // one owner
  w.u32(0x0a000001);
  w.u32(1);
  w.varint(1);  // one allocation entry pointing past the owner table
  w.vstr("vip0");
  w.varint(3);
  EXPECT_THROW((void)decode_balance_v2(w.take()), util::DecodeError);
}

// Deterministic mutation fuzzing: flip random bytes of valid messages and
// random buffers; the decoders must either succeed or throw DecodeError —
// any other escape (crash, other exception type) fails the test. Runs
// under ASan+UBSan in CI, where out-of-bounds reads become hard failures.
TEST(WamWireFuzz, MutatedMessagesNeverEscapeDecodeError) {
  sim::Rng rng(20260805);
  auto all = codecs();
  for (int round = 0; round < 2000; ++round) {
    const auto& c = all[static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(all.size())))];
    auto buf = c.encoded;
    auto flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      auto pos = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(buf.size())));
      buf[pos] = static_cast<std::uint8_t>(rng.below(256));
    }
    try {
      c.decode(buf);
    } catch (const util::DecodeError&) {
      // expected for most mutations
    }
  }
}

// Varint-targeted mutation: splice runs of 0xff continuation bytes into
// valid messages, stretching whatever varint (or length prefix) they land
// in far past its declared width. Complements the byte-flip suite, which
// rarely manufactures an over-wide varint.
TEST(WamWireFuzz, VarintStuffedMutationsNeverEscapeDecodeError) {
  sim::Rng rng(20260808);
  auto all = codecs();
  for (int round = 0; round < 2000; ++round) {
    const auto& c = all[static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(all.size())))];
    auto buf = c.encoded;
    auto pos = static_cast<std::ptrdiff_t>(
        rng.below(static_cast<std::uint64_t>(buf.size())));
    auto run = static_cast<std::size_t>(1 + rng.below(10));
    buf.insert(buf.begin() + pos, run, 0xff);
    try {
      c.decode(buf);
    } catch (const util::DecodeError&) {
      // expected for most splices
    }
  }
}

TEST(WamWireFuzz, RandomBuffersNeverEscapeDecodeError) {
  sim::Rng rng(777);
  auto all = codecs();
  for (int round = 0; round < 2000; ++round) {
    util::Bytes buf(static_cast<std::size_t>(rng.below(64)));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    for (const auto& c : all) {
      try {
        c.decode(buf);
      } catch (const util::DecodeError&) {
      }
    }
    try {
      (void)peek_type(buf);
    } catch (const util::DecodeError&) {
    }
  }
}

}  // namespace
}  // namespace wam::wackamole
