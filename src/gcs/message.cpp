#include "gcs/message.hpp"

#include <array>
#include <concepts>
#include <type_traits>

namespace wam::gcs {

namespace {

// The wire layout. Each type lists its fields once, in wire order; encode()
// runs the list through Writer and decode() through Reader, so the two
// directions cannot drift apart. Scalars are big-endian, strings and byte
// strings u32-length-prefixed, vectors a u32 count then the elements.

template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

template <class IO, Is<ViewId> M>
void fields(IO& io, M& m) {
  io(m.epoch, m.coordinator);
}
template <class IO, Is<View> M>
void fields(IO& io, M& m) {
  io(m.id, m.members);
}
template <class IO, Is<MemberId> M>
void fields(IO& io, M& m) {
  io(m.daemon, m.client, m.name);
}
template <class IO, Is<GroupEntry> M>
void fields(IO& io, M& m) {
  io(m.group, m.member);
}
template <class IO, Is<DataMessage> M>
void fields(IO& io, M& m) {
  io(m.view, m.seq, m.sender, m.origin_msg_id, m.service, m.kind, m.group,
     m.payload, m.vclock);
}
template <class IO, Is<Heartbeat> M>
void fields(IO& io, M& m) {
  io(m.sender, m.view, m.in_op, m.delivered_seq, m.stable_seq, m.fifo_seq);
}
template <class IO, Is<Discovery> M>
void fields(IO& io, M& m) {
  io(m.sender, m.epoch, m.known);
}
template <class IO, Is<Propose> M>
void fields(IO& io, M& m) {
  io(m.view, m.members);
}
template <class IO, Is<Accept> M>
void fields(IO& io, M& m) {
  io(m.view, m.sender, m.old_view, m.retained, m.groups, m.group_seqs);
}
template <class IO, Is<Install> M>
void fields(IO& io, M& m) {
  io(m.view, m.sync, m.groups, m.group_seqs);
}
template <class IO, Is<Forward> M>
void fields(IO& io, M& m) {
  io(m.data);
}
template <class IO, Is<Nack> M>
void fields(IO& io, M& m) {
  io(m.view, m.sender, m.fifo_origin, m.missing);
}
template <class IO, Is<Token> M>
void fields(IO& io, M& m) {
  io(m.view, m.rotation, m.seq, m.aru, m.aru_setter, m.rtr);
}

struct Writer {
  util::ByteWriter& w;

  template <class... Ts>
  void operator()(const Ts&... fs) {
    (put(fs), ...);
  }
  void put(bool v) { w.boolean(v); }
  void put(std::uint32_t v) { w.u32(v); }
  void put(std::uint64_t v) { w.u64(v); }
  void put(DaemonId v) { w.u32(v.value()); }
  void put(ServiceType v) { w.u8(static_cast<std::uint8_t>(v)); }
  void put(DataKind v) { w.u8(static_cast<std::uint8_t>(v)); }
  void put(const std::string& v) { w.str(v); }
  void put(const util::SharedBytes& v) { w.bytes(v); }
  template <class A, class B>
  void put(const std::pair<A, B>& v) {
    put(v.first);
    put(v.second);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) put(e);
  }
  template <class T>
  void put(const T& m) {
    fields(*this, m);
  }
};

/// Bytes the smallest encoding of a T takes: every string and vector in
/// it empty. A wire count larger than the remaining bytes allow at this
/// size is malformed.
template <class T>
std::size_t min_wire_size() {
  static const std::size_t size = [] {
    util::ByteWriter w;
    Writer{w}.put(T{});
    return w.size();
  }();
  return size;
}

struct Reader {
  util::ByteReader& r;

  template <class... Ts>
  void operator()(Ts&... fs) {
    (get(fs), ...);
  }
  void get(bool& v) { v = r.boolean(); }
  void get(std::uint32_t& v) { v = r.u32(); }
  void get(std::uint64_t& v) { v = r.u64(); }
  void get(DaemonId& v) { v = DaemonId(r.u32()); }
  void get(ServiceType& v) {
    v = static_cast<ServiceType>(bounded(3, "bad ServiceType"));
  }
  void get(DataKind& v) {
    v = static_cast<DataKind>(bounded(2, "bad DataKind"));
  }
  void get(std::string& v) { v = r.str(); }
  // A zero-copy slice of the wire buffer.
  void get(util::SharedBytes& v) { v = r.shared_bytes(); }
  template <class A, class B>
  void get(std::pair<A, B>& v) {
    get(v.first);
    get(v.second);
  }
  template <class T>
  void get(std::vector<T>& v) {
    auto n = r.u32();
    if (n > r.remaining() / min_wire_size<T>()) {
      throw util::DecodeError("implausible element count " +
                              std::to_string(n));
    }
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) get(v.emplace_back());
  }
  template <class T>
  void get(T& m) {
    fields(*this, m);
  }

  std::uint8_t bounded(std::uint8_t max, const char* what) {
    auto b = r.u8();
    if (b > max) throw util::DecodeError(what);
    return b;
  }
};

// The type byte is the Message alternative's index plus one.
template <MsgType T, class M>
constexpr bool kNumbered = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(T) - 1, Message>, M>;
static_assert(kNumbered<MsgType::kHeartbeat, Heartbeat> &&
              kNumbered<MsgType::kDiscovery, Discovery> &&
              kNumbered<MsgType::kPropose, Propose> &&
              kNumbered<MsgType::kAccept, Accept> &&
              kNumbered<MsgType::kInstall, Install> &&
              kNumbered<MsgType::kForward, Forward> &&
              kNumbered<MsgType::kData, DataMessage> &&
              kNumbered<MsgType::kNack, Nack> &&
              kNumbered<MsgType::kToken, Token> &&
              std::variant_size_v<Message> == 9);

template <class M>
Message read_as(util::ByteReader& r) {
  M m;
  Reader{r}.get(m);
  r.expect_end();
  return m;
}

template <std::size_t... I>
constexpr auto make_readers(std::index_sequence<I...>) {
  return std::array<Message (*)(util::ByteReader&), sizeof...(I)>{
      &read_as<std::variant_alternative_t<I, Message>>...};
}
constexpr auto kReaders =
    make_readers(std::make_index_sequence<std::variant_size_v<Message>>{});

}  // namespace

util::Bytes encode(const Message& msg) {
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(msg.index() + 1));
  std::visit([&w](const auto& m) { Writer{w}.put(m); }, msg);
  return w.take();
}

Message decode(const util::SharedBytes& buf) {
  util::ByteReader r(buf);
  auto type = r.u8();
  if (type == 0 || type > kReaders.size()) {
    throw util::DecodeError("unknown GCS message type " +
                            std::to_string(type));
  }
  return kReaders[type - 1](r);
}

const char* msg_type_name(const Message& msg) {
  static constexpr std::array<const char*, 9> kNames = {
      "HEARTBEAT", "DISCOVERY", "PROPOSE", "ACCEPT", "INSTALL",
      "FORWARD",   "DATA",      "NACK",    "TOKEN"};
  return kNames[msg.index()];
}

}  // namespace wam::gcs
