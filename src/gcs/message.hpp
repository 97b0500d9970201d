// GCS wire messages.
//
// Every daemon-to-daemon packet is one of the variants below, serialized
// with a leading type byte into a UDP payload. DataMessage doubles as the
// retained-message record used by the Virtual-Synchrony exchange: during a
// membership change each daemon ships its unstable messages (tagged with
// the view that sequenced them) to the coordinator, whose INSTALL carries
// the per-old-view union back out.
//
// The wire layout is the `fields()` list of each type in message.cpp: the
// type byte (MsgType), then the fields in list order. encode() and
// decode() both run that one list, and decode() rejects a vector count the
// remaining bytes cannot hold.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gcs/types.hpp"
#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"

namespace wam::gcs {

enum class MsgType : std::uint8_t {
  kHeartbeat = 1,
  kDiscovery = 2,
  kPropose = 3,
  kAccept = 4,
  kInstall = 5,
  kForward = 6,
  kData = 7,
  kNack = 8,
  kToken = 9,
};

enum class DataKind : std::uint8_t {
  kClientPayload = 0,  // application multicast
  kJoin = 1,           // group join control message
  kLeave = 2,          // group leave control message
};

/// A data message. For kAgreed service, `seq` is the view-global sequence
/// number stamped by the sequencer (0 until then). For kFifo service,
/// `seq` is the origin daemon's per-view FIFO counter and the message is
/// broadcast by the origin directly.
struct DataMessage {
  ViewId view;                   // view that sequenced it; proposal view in FORWARD
  std::uint64_t seq = 0;         // 0 until the sequencer assigns one
  MemberId sender;               // originating client
  std::uint64_t origin_msg_id = 0;  // per-origin-daemon counter (dedup/pending)
  ServiceType service = ServiceType::kAgreed;
  DataKind kind = DataKind::kClientPayload;
  std::string group;
  util::SharedBytes payload;  // COW: shared with the wire buffer on decode
  /// kCausal only: (daemon, last stream seq dispatched from that daemon)
  /// at send time — the happened-before dependencies.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> vclock;
};

/// Periodic liveness + stability gossip (broadcast every heartbeat_timeout).
struct Heartbeat {
  DaemonId sender;
  ViewId view;                      // sender's installed view
  bool in_op = true;                // false while reconfiguring
  std::uint64_t delivered_seq = 0;  // highest contiguously delivered seq
  std::uint64_t stable_seq = 0;     // sequencer's stability watermark
  std::uint64_t fifo_seq = 0;       // head of the sender's FIFO/causal
                                    // stream (receivers NACK a silent tail)
};

/// Membership-change flood: who I am, what epoch I propose, whom I've heard.
struct Discovery {
  DaemonId sender;
  std::uint64_t epoch = 0;
  std::vector<DaemonId> known;
};

/// Coordinator's proposed membership after the discovery window closes.
struct Propose {
  ViewId view;
  std::vector<DaemonId> members;
};

struct GroupEntry {
  std::string group;
  MemberId member;
};

/// Member -> coordinator: my state for the Virtual-Synchrony exchange.
struct Accept {
  ViewId view;          // the proposal being accepted
  DaemonId sender;
  ViewId old_view;      // last installed view
  std::vector<DataMessage> retained;  // unstable messages from old views
  std::vector<GroupEntry> groups;     // local group table snapshot
  std::vector<std::pair<std::string, std::uint64_t>> group_seqs;
};

/// Coordinator -> all: install the view after delivering the sync set.
struct Install {
  View view;
  std::vector<DataMessage> sync;   // union of retained, sorted (view, seq)
  std::vector<GroupEntry> groups;  // merged group table for the new view
  std::vector<std::pair<std::string, std::uint64_t>> group_seqs;
};

/// Member -> sequencer: please order this (seq==0 inside).
struct Forward {
  DataMessage data;
};

/// Receiver -> sequencer (agreed) or origin daemon (fifo): I am missing
/// these sequence numbers. For the FIFO flavor, `fifo_origin` names the
/// origin daemon whose stream has the gap; it is 0.0.0.0 for agreed.
struct Nack {
  ViewId view;
  DaemonId sender;
  DaemonId fifo_origin;
  std::vector<std::uint64_t> missing;
};

/// The rotating ordering token (OrderingEngine::kTokenRing). Unicast
/// around the ring in membership order.
struct Token {
  ViewId view;
  std::uint64_t rotation = 0;  // hop counter; receivers dedup on it
  std::uint64_t seq = 0;       // highest sequence number assigned so far
  std::uint64_t aru = 0;       // all-received-up-to watermark
  DaemonId aru_setter;         // who lowered the aru last
  std::vector<std::uint64_t> rtr;  // sequence numbers needing retransmission
};

using Message = std::variant<Heartbeat, Discovery, Propose, Accept, Install,
                             Forward, DataMessage, Nack, Token>;

[[nodiscard]] util::Bytes encode(const Message& msg);
/// Throws util::DecodeError on malformed input. Data payloads come back
/// as zero-copy slices of `buf`'s refcounted storage (plain Bytes inputs
/// are wrapped — moved, not copied, when passed as an rvalue).
[[nodiscard]] Message decode(const util::SharedBytes& buf);

[[nodiscard]] const char* msg_type_name(const Message& msg);

}  // namespace wam::gcs
