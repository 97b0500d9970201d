#include "gcs/message.hpp"

#include <gtest/gtest.h>

namespace wam::gcs {
namespace {

DaemonId ip(int n) {
  return DaemonId(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n)));
}

DataMessage sample_data() {
  DataMessage d;
  d.view = ViewId{7, ip(1)};
  d.seq = 42;
  d.sender = MemberId{ip(3), 2, "wackamole"};
  d.origin_msg_id = 99;
  d.kind = DataKind::kClientPayload;
  d.group = "wackamole";
  d.payload = {1, 2, 3};
  return d;
}

TEST(GcsMessage, HeartbeatRoundTrip) {
  Heartbeat hb{ip(1), ViewId{3, ip(1)}, false, 17, 12};
  auto m = decode(encode(hb));
  auto& out = std::get<Heartbeat>(m);
  EXPECT_EQ(out.sender, ip(1));
  EXPECT_EQ(out.view, (ViewId{3, ip(1)}));
  EXPECT_FALSE(out.in_op);
  EXPECT_EQ(out.delivered_seq, 17u);
  EXPECT_EQ(out.stable_seq, 12u);
}

TEST(GcsMessage, DiscoveryRoundTrip) {
  Discovery d{ip(2), 9, {ip(1), ip(2), ip(3)}};
  auto out = std::get<Discovery>(decode(encode(d)));
  EXPECT_EQ(out.sender, ip(2));
  EXPECT_EQ(out.epoch, 9u);
  EXPECT_EQ(out.known, d.known);
}

TEST(GcsMessage, ProposeRoundTrip) {
  Propose p{ViewId{4, ip(1)}, {ip(1), ip(5)}};
  auto out = std::get<Propose>(decode(encode(p)));
  EXPECT_EQ(out.view, p.view);
  EXPECT_EQ(out.members, p.members);
}

TEST(GcsMessage, DataRoundTrip) {
  auto d = sample_data();
  auto out = std::get<DataMessage>(decode(encode(Message(d))));
  EXPECT_EQ(out.view, d.view);
  EXPECT_EQ(out.seq, d.seq);
  EXPECT_EQ(out.sender, d.sender);
  EXPECT_EQ(out.sender.name, "wackamole");
  EXPECT_EQ(out.origin_msg_id, d.origin_msg_id);
  EXPECT_EQ(out.kind, d.kind);
  EXPECT_EQ(out.group, d.group);
  EXPECT_EQ(out.payload, d.payload);
}

TEST(GcsMessage, ForwardRoundTrip) {
  Forward f{sample_data()};
  auto out = std::get<Forward>(decode(encode(f)));
  EXPECT_EQ(out.data.origin_msg_id, 99u);
}

TEST(GcsMessage, AcceptRoundTrip) {
  Accept a;
  a.view = ViewId{5, ip(1)};
  a.sender = ip(2);
  a.old_view = ViewId{4, ip(2)};
  a.retained = {sample_data(), sample_data()};
  a.groups = {GroupEntry{"wackamole", MemberId{ip(2), 1, "w"}}};
  a.group_seqs = {{"wackamole", 6}};
  auto out = std::get<Accept>(decode(encode(a)));
  EXPECT_EQ(out.view, a.view);
  EXPECT_EQ(out.sender, a.sender);
  EXPECT_EQ(out.old_view, a.old_view);
  ASSERT_EQ(out.retained.size(), 2u);
  EXPECT_EQ(out.retained[0].seq, 42u);
  ASSERT_EQ(out.groups.size(), 1u);
  EXPECT_EQ(out.groups[0].group, "wackamole");
  ASSERT_EQ(out.group_seqs.size(), 1u);
  EXPECT_EQ(out.group_seqs[0].second, 6u);
}

TEST(GcsMessage, InstallRoundTrip) {
  Install inst;
  inst.view = View{ViewId{5, ip(1)}, {ip(1), ip(2)}};
  inst.sync = {sample_data()};
  inst.groups = {GroupEntry{"g", MemberId{ip(1), 1, "x"}}};
  inst.group_seqs = {{"g", 2}};
  auto out = std::get<Install>(decode(encode(inst)));
  EXPECT_EQ(out.view.id, inst.view.id);
  EXPECT_EQ(out.view.members, inst.view.members);
  ASSERT_EQ(out.sync.size(), 1u);
  EXPECT_EQ(out.sync[0].group, "wackamole");
}

TEST(GcsMessage, NackRoundTrip) {
  Nack n{ViewId{2, ip(1)}, ip(3), DaemonId{}, {4, 5, 9}};
  auto out = std::get<Nack>(decode(encode(n)));
  EXPECT_EQ(out.view, n.view);
  EXPECT_EQ(out.sender, n.sender);
  EXPECT_TRUE(out.fifo_origin.is_any());
  EXPECT_EQ(out.missing, n.missing);
}

TEST(GcsMessage, FifoNackRoundTrip) {
  Nack n{ViewId{2, ip(1)}, ip(3), ip(7), {11}};
  auto out = std::get<Nack>(decode(encode(n)));
  EXPECT_EQ(out.fifo_origin, ip(7));
  EXPECT_EQ(out.missing, n.missing);
}

TEST(GcsMessage, ServiceTypeRoundTrip) {
  auto d = sample_data();
  d.service = ServiceType::kFifo;
  auto out = std::get<DataMessage>(decode(encode(Message(d))));
  EXPECT_EQ(out.service, ServiceType::kFifo);
}

TEST(GcsMessage, DecodeRejectsUnknownType) {
  util::Bytes buf{0x7f};
  EXPECT_THROW(decode(buf), util::DecodeError);
}

TEST(GcsMessage, DecodeRejectsTruncated) {
  auto bytes = encode(Message(sample_data()));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode(bytes), util::DecodeError);
}

TEST(GcsMessage, DecodeRejectsTrailingGarbage) {
  auto bytes = encode(Message(Heartbeat{ip(1), ViewId{1, ip(1)}, true, 0, 0}));
  bytes.push_back(0);
  EXPECT_THROW(decode(bytes), util::DecodeError);
}

TEST(GcsMessage, TypeNames) {
  EXPECT_STREQ(msg_type_name(Message(sample_data())), "DATA");
  EXPECT_STREQ(msg_type_name(Message(Nack{})), "NACK");
  EXPECT_STREQ(msg_type_name(Message(Heartbeat{})), "HEARTBEAT");
}

// ---- Wire layout pins: the exact bytes of every message type. A round
// trip alone still passes when a field moves, so these compare hex.

std::string hex_of(const util::Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (auto byte : b) {
    out.push_back(digits[byte >> 4]);
    out.push_back(digits[byte & 0xf]);
  }
  return out;
}

util::Bytes from_hex(const std::string& s) {
  util::Bytes out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

DataMessage causal_data() {
  auto d = sample_data();
  d.service = ServiceType::kCausal;
  d.vclock = {{ip(4).value(), 5}, {ip(6).value(), 0x0102030405060708ULL}};
  return d;
}

// sample_data() after the type byte: view, seq, sender, origin_msg_id,
// service, kind, group, payload, vclock count.
const std::string kSampleData =
    "00000000000000070a000001"
    "000000000000002a"
    "0a0000030000000200000009" "7761636b616d6f6c65"
    "0000000000000063"
    "00" "00"
    "00000009" "7761636b616d6f6c65"
    "00000003" "010203"
    "00000000";

TEST(GcsMessage, HeartbeatWireBytes) {
  Heartbeat hb{ip(1), ViewId{3, ip(2)}, true, 17, 12, 0x0a0b};
  EXPECT_EQ(hex_of(encode(hb)),
            "01" "0a000001" "00000000000000030a000002" "01"
            "0000000000000011" "000000000000000c" "0000000000000a0b");
}

TEST(GcsMessage, DiscoveryWireBytes) {
  Discovery d{ip(2), 9, {ip(1), ip(2), ip(3)}};
  EXPECT_EQ(hex_of(encode(d)), "02" "0a000002" "0000000000000009"
                               "00000003" "0a000001" "0a000002" "0a000003");
}

TEST(GcsMessage, ProposeWireBytes) {
  Propose p{ViewId{4, ip(1)}, {ip(1), ip(5)}};
  EXPECT_EQ(hex_of(encode(p)), "03" "00000000000000040a000001"
                               "00000002" "0a000001" "0a000005");
}

TEST(GcsMessage, AcceptWireBytes) {
  Accept a;
  a.view = ViewId{5, ip(1)};
  a.sender = ip(2);
  a.old_view = ViewId{4, ip(2)};
  a.retained = {sample_data()};
  a.groups = {GroupEntry{"g", MemberId{ip(2), 1, "w"}}};
  a.group_seqs = {{"g", 6}};
  EXPECT_EQ(hex_of(encode(a)),
            "04" "00000000000000050a000001" "0a000002"
            "00000000000000040a000002"
            "00000001" + kSampleData +
            "00000001" "0000000167" "0a000002" "00000001" "0000000177"
            "00000001" "0000000167" "0000000000000006");
}

TEST(GcsMessage, InstallWireBytes) {
  Install inst;
  inst.view = View{ViewId{5, ip(1)}, {ip(1), ip(2)}};
  inst.sync = {sample_data()};
  inst.groups = {GroupEntry{"g", MemberId{ip(1), 1, "x"}}};
  inst.group_seqs = {{"g", 2}};
  EXPECT_EQ(hex_of(encode(inst)),
            "05" "00000000000000050a000001" "00000002" "0a000001" "0a000002"
            "00000001" + kSampleData +
            "00000001" "0000000167" "0a000001" "00000001" "0000000178"
            "00000001" "0000000167" "0000000000000002");
}

TEST(GcsMessage, ForwardWireBytes) {
  auto d = sample_data();
  d.seq = 0;
  auto body = kSampleData;
  body.replace(24, 16, "0000000000000000");
  EXPECT_EQ(hex_of(encode(Forward{d})), "06" + body);
}

TEST(GcsMessage, AgreedDataWireBytes) {
  EXPECT_EQ(hex_of(encode(Message(sample_data()))), "07" + kSampleData);
}

TEST(GcsMessage, CausalDataWireBytes) {
  EXPECT_EQ(hex_of(encode(Message(causal_data()))),
            "07" "00000000000000070a000001" "000000000000002a"
            "0a0000030000000200000009" "7761636b616d6f6c65"
            "0000000000000063" "03" "00"
            "00000009" "7761636b616d6f6c65" "00000003" "010203"
            "00000002" "0a000004" "0000000000000005"
            "0a000006" "0102030405060708");
}

TEST(GcsMessage, AgreedNackWireBytes) {
  Nack n{ViewId{2, ip(1)}, ip(3), DaemonId{}, {4, 5, 9}};
  EXPECT_EQ(hex_of(encode(n)),
            "08" "00000000000000020a000001" "0a000003" "00000000"
            "00000003" "0000000000000004" "0000000000000005"
            "0000000000000009");
}

TEST(GcsMessage, FifoNackWireBytes) {
  Nack n{ViewId{2, ip(1)}, ip(3), ip(7), {11, 12}};
  EXPECT_EQ(hex_of(encode(n)),
            "08" "00000000000000020a000001" "0a000003" "0a000007"
            "00000002" "000000000000000b" "000000000000000c");
}

TEST(GcsMessage, TokenWireBytes) {
  Token t{ViewId{8, ip(1)}, 31, 40, 37, ip(3), {38, 39}};
  EXPECT_EQ(hex_of(encode(t)),
            "09" "00000000000000080a000001" "000000000000001f"
            "0000000000000028" "0000000000000025" "0a000003"
            "00000002" "0000000000000026" "0000000000000027");
}

TEST(GcsMessage, CausalDataRoundTripKeepsTheVectorClock) {
  auto d = causal_data();
  auto out = std::get<DataMessage>(decode(encode(Message(d))));
  EXPECT_EQ(out.service, ServiceType::kCausal);
  EXPECT_EQ(out.vclock, d.vclock);
}

// Byte offset of the ServiceType byte in a DATA frame: type(1) view(12)
// seq(8) sender(4+4+4+len("wackamole")) origin_msg_id(8).
constexpr std::size_t kServiceOffset = 1 + 12 + 8 + 12 + 9 + 8;

TEST(GcsMessage, DecodeRejectsServiceTypeFour) {
  auto bytes = encode(Message(sample_data()));
  ASSERT_EQ(bytes[kServiceOffset], 0u);  // kAgreed
  bytes[kServiceOffset] = 4;
  EXPECT_THROW(decode(bytes), util::DecodeError);
  bytes[kServiceOffset] = 3;  // kCausal is the highest valid value
  EXPECT_NO_THROW(decode(bytes));
}

TEST(GcsMessage, DecodeRejectsDataKindThree) {
  auto bytes = encode(Message(sample_data()));
  ASSERT_EQ(bytes[kServiceOffset + 1], 0u);  // kClientPayload
  bytes[kServiceOffset + 1] = 3;
  EXPECT_THROW(decode(bytes), util::DecodeError);
  bytes[kServiceOffset + 1] = 2;  // kLeave is the highest valid value
  EXPECT_NO_THROW(decode(bytes));
}

// ---- Oversized element counts: a count the remaining bytes cannot hold
// is a DecodeError, never an allocation sized from the wire.

constexpr const char* kHugeCount = "ffffffff";
const std::string kZeroView = "000000000000000000000000";  // epoch 0, 0.0.0.0
const std::string kZeroDaemon = "00000000";

void expect_rejected(const std::string& hex) {
  EXPECT_THROW(decode(from_hex(hex)), util::DecodeError) << hex;
}

TEST(GcsMessage, DecodeRejectsOversizedDaemonList) {
  // DISCOVERY: sender, epoch, known[].
  expect_rejected("02" + kZeroDaemon + "0000000000000000" + kHugeCount);
  // PROPOSE: view, members[].
  expect_rejected("03" + kZeroView + kHugeCount);
  // INSTALL: view id, members[].
  expect_rejected("05" + kZeroView + kHugeCount);
}

TEST(GcsMessage, DecodeRejectsOversizedDataList) {
  // ACCEPT: view, sender, old view, retained[] (the 33-byte datagram).
  auto accept = "04" + kZeroView + kZeroDaemon + kZeroView + kHugeCount;
  ASSERT_EQ(from_hex(accept).size(), 33u);
  expect_rejected(accept);
  // INSTALL: view id, members[0], sync[].
  expect_rejected("05" + kZeroView + "00000000" + kHugeCount);
}

TEST(GcsMessage, DecodeRejectsOversizedGroupList) {
  // ACCEPT: ..., retained[0], groups[].
  expect_rejected("04" + kZeroView + kZeroDaemon + kZeroView + "00000000" +
                  kHugeCount);
  // INSTALL: ..., members[0], sync[0], groups[].
  expect_rejected("05" + kZeroView + "00000000" + "00000000" + kHugeCount);
}

TEST(GcsMessage, DecodeRejectsOversizedGroupSeqs) {
  expect_rejected("04" + kZeroView + kZeroDaemon + kZeroView + "00000000" +
                  "00000000" + kHugeCount);
  expect_rejected("05" + kZeroView + "00000000" + "00000000" + "00000000" +
                  kHugeCount);
}

TEST(GcsMessage, DecodeRejectsOversizedVectorClock) {
  // DATA: sample_data() with its trailing vclock count replaced.
  auto body = kSampleData;
  body.replace(body.size() - 8, 8, kHugeCount);
  expect_rejected("07" + body);
  // The same clock inside a FORWARD.
  expect_rejected("06" + body);
}

TEST(GcsMessage, DecodeRejectsOversizedNackAndRtrLists) {
  // NACK: view, sender, fifo origin, missing[].
  expect_rejected("08" + kZeroView + kZeroDaemon + kZeroDaemon + kHugeCount);
  // TOKEN: view, rotation, seq, aru, aru setter, rtr[].
  expect_rejected("09" + kZeroView + "0000000000000000" + "0000000000000000" +
                  "0000000000000000" + kZeroDaemon + kHugeCount);
}

TEST(ViewId, LexicographicOrdering) {
  EXPECT_LT((ViewId{1, ip(9)}), (ViewId{2, ip(1)}));
  EXPECT_LT((ViewId{2, ip(1)}), (ViewId{2, ip(2)}));
}

TEST(View, RankAndContains) {
  View v{ViewId{1, ip(1)}, {ip(1), ip(3), ip(5)}};
  EXPECT_TRUE(v.contains(ip(3)));
  EXPECT_FALSE(v.contains(ip(2)));
  EXPECT_EQ(v.rank_of(ip(1)), 0);
  EXPECT_EQ(v.rank_of(ip(5)), 2);
  EXPECT_EQ(v.rank_of(ip(4)), -1);
}

}  // namespace
}  // namespace wam::gcs
