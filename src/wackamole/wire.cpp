#include "wackamole/wire.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace wam::wackamole {

// peek_type() trusts the [1, kWamMsgTypeLast] range derived from the
// sentinel minus the reserved codes; this pin breaks the build if an
// enumerator is ever appended after kAfterLast_.
static_assert(kWamMsgTypeLast ==
                  static_cast<std::uint8_t>(WamMsgType::kAllocV2),
              "kAfterLast_ must stay the final WamMsgType enumerator");

namespace {

/// Codes of the retired v1 STATE, BALANCE and ALLOC bodies. A peer that
/// still sends them is rejected at the type byte, never misparsed.
constexpr std::uint8_t kReservedCodes[] = {1, 2, 4};

constexpr std::size_t kTagSize = 8 + 4 + 8;  // epoch, coordinator, group_seq

void put_tag(util::ByteWriter& w, const ViewTag& t) {
  w.u64(t.epoch);
  w.u32(t.coordinator);
  w.u64(t.group_seq);
}

ViewTag get_tag(util::ByteReader& r) {
  ViewTag t;
  t.epoch = r.u64();
  t.coordinator = r.u32();
  t.group_seq = r.u64();
  return t;
}

// A count claiming more elements than the remaining bytes could possibly
// hold is rejected before reserve() turns an attacker-controlled length
// into a giant allocation (each element is at least `min_entry` bytes).
std::uint32_t get_count(util::ByteReader& r, std::size_t min_entry) {
  auto n = r.u32();
  if (n > r.remaining() / min_entry) {
    throw util::DecodeError("implausible element count " + std::to_string(n));
  }
  return n;
}

// Varint-count variant of the same guard for the v2 bodies.
std::uint64_t get_vcount(util::ByteReader& r, std::size_t min_entry) {
  auto n = r.varint();
  if (n > r.remaining() / min_entry) {
    throw util::DecodeError("implausible element count " + std::to_string(n));
  }
  return n;
}

void check_type(util::ByteReader& r, WamMsgType expected) {
  auto t = r.u8();
  if (t != static_cast<std::uint8_t>(expected)) {
    throw util::DecodeError("unexpected wackamole message type " +
                            std::to_string(t));
  }
}

}  // namespace

// ---- Compact v2 bodies -------------------------------------------------
//
// STATE v2: [type][tag][mature][varint weight]
//           [varint N][N x vstr name]    <- union table, first-appearance
//           3 x ([varint count][count x varint table-index])
//
// BALANCE/ALLOC v2: [type][tag]
//           [varint M][M x (u32 daemon, u32 client)]  <- owner table
//           [varint V][V x (vstr name, varint owner-index)]
//
// GroupIds never reach the wire: they are first-intern order and differ
// between processes. The name table lists each distinct name once, in
// first appearance order over the message's lists — a pure function of
// the message CONTENT (the daemon emits its lists in name/config order),
// so the encoded bytes are identical on every member, which the
// simulation's determinism checks require.

namespace {

/// Unique name table over any number of id lists, in first-appearance
/// order, plus the varint index each id encodes as. Dedup is O(1) per
/// entry via a generation-stamped scratch array indexed by GroupId (the
/// process-wide id space is dense), so building the table costs no
/// hashing and no sort.
struct NameTable {
  std::vector<const std::string*> names;

  explicit NameTable(
      std::initializer_list<const std::vector<GroupId>*> lists) {
    thread_local std::vector<std::uint64_t> stamp;
    thread_local std::vector<std::uint32_t> slot;
    thread_local std::uint64_t generation = 0;
    ++generation;
    slot_ = &slot;
    for (const auto* list : lists) {
      for (auto id : *list) {
        if (id >= stamp.size()) {
          stamp.resize(id + 1, 0);
          slot.resize(id + 1, 0);
        }
        if (stamp[id] != generation) {
          stamp[id] = generation;
          slot[id] = static_cast<std::uint32_t>(names.size());
          const auto& name = group_name(id);
          names.push_back(&name);
          name_bytes_ += util::varint_size(name.size()) + name.size();
        }
      }
    }
  }

  [[nodiscard]] std::uint32_t index_of(GroupId id) const {
    return (*slot_)[id];  // valid: ctor stamped every id the lists hold
  }

  [[nodiscard]] std::size_t encoded_size() const {
    return util::varint_size(names.size()) + name_bytes_;
  }

  [[nodiscard]] std::size_t list_size(const std::vector<GroupId>& ids) const {
    std::size_t total = util::varint_size(ids.size());
    for (auto id : ids) total += util::varint_size(index_of(id));
    return total;
  }

  void put(util::ByteWriter& w) const {
    w.varint(names.size());
    for (const auto* n : names) w.vstr(*n);
  }

  void put_list(util::ByteWriter& w, const std::vector<GroupId>& ids) const {
    w.varint(ids.size());
    for (auto id : ids) w.varint(index_of(id));
  }

 private:
  std::vector<std::uint32_t>* slot_ = nullptr;
  std::size_t name_bytes_ = 0;
};

std::vector<GroupId> get_id_table(util::ByteReader& r) {
  auto n = get_vcount(r, 1);  // each name: >= 1-byte length prefix
  std::vector<GroupId> table;
  table.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.push_back(intern_group(r.vstr()));
  return table;
}

std::vector<GroupId> get_id_list(util::ByteReader& r,
                                 const std::vector<GroupId>& table) {
  auto n = get_vcount(r, 1);
  std::vector<GroupId> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto idx = r.varint();
    if (idx >= table.size()) {
      throw util::DecodeError("name-table index out of range: " +
                              std::to_string(idx));
    }
    out.push_back(table[idx]);
  }
  return out;
}

util::Bytes encode_allocation_body_v2(const BalanceMsgV2& m, WamMsgType type) {
  // Owner table in first-appearance order of the allocation.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> owners;
  std::unordered_map<std::uint64_t, std::uint32_t> owner_index;
  std::vector<std::uint32_t> owner_of;
  owner_of.reserve(m.allocation.size());
  std::size_t entry_bytes = 0;
  for (const auto& [id, owner] : m.allocation) {
    auto key = (static_cast<std::uint64_t>(owner.first) << 32) | owner.second;
    auto [it, inserted] =
        owner_index.emplace(key, static_cast<std::uint32_t>(owners.size()));
    if (inserted) owners.push_back(owner);
    owner_of.push_back(it->second);
    const auto& name = group_name(id);
    entry_bytes += util::varint_size(name.size()) + name.size() +
                   util::varint_size(it->second);
  }
  util::ByteWriter w(1 + kTagSize + util::varint_size(owners.size()) +
                     8 * owners.size() +
                     util::varint_size(m.allocation.size()) + entry_bytes);
  w.u8(static_cast<std::uint8_t>(type));
  put_tag(w, m.view);
  w.varint(owners.size());
  for (const auto& [daemon, client] : owners) {
    w.u32(daemon);
    w.u32(client);
  }
  w.varint(m.allocation.size());
  for (std::size_t i = 0; i < m.allocation.size(); ++i) {
    w.vstr(group_name(m.allocation[i].first));
    w.varint(owner_of[i]);
  }
  return w.take();
}

BalanceMsgV2 decode_allocation_body_v2(util::ByteView buf, WamMsgType type) {
  util::ByteReader r(buf);
  check_type(r, type);
  BalanceMsgV2 m;
  m.view = get_tag(r);
  auto n_owners = get_vcount(r, 8);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> owners;
  owners.reserve(n_owners);
  for (std::uint64_t i = 0; i < n_owners; ++i) {
    auto daemon = r.u32();
    auto client = r.u32();
    owners.emplace_back(daemon, client);
  }
  auto n_groups = get_vcount(r, 2);  // vstr prefix + owner index
  m.allocation.reserve(n_groups);
  for (std::uint64_t i = 0; i < n_groups; ++i) {
    auto id = intern_group(r.vstr());
    auto idx = r.varint();
    if (idx >= owners.size()) {
      throw util::DecodeError("owner-table index out of range: " +
                              std::to_string(idx));
    }
    m.allocation.emplace_back(id, owners[idx]);
  }
  r.expect_end();
  return m;
}

}  // namespace

util::Bytes encode_state_v2(const StateMsgV2& m) {
  NameTable table({&m.owned, &m.preferred, &m.quarantined});
  util::ByteWriter w(1 + kTagSize + 1 + util::varint_size(m.weight) +
                     table.encoded_size() + table.list_size(m.owned) +
                     table.list_size(m.preferred) +
                     table.list_size(m.quarantined));
  w.u8(static_cast<std::uint8_t>(WamMsgType::kStateV2));
  put_tag(w, m.view);
  w.boolean(m.mature);
  w.varint(m.weight);
  table.put(w);
  table.put_list(w, m.owned);
  table.put_list(w, m.preferred);
  table.put_list(w, m.quarantined);
  return w.take();
}

StateMsgV2 decode_state_v2(util::ByteView buf) {
  util::ByteReader r(buf);
  check_type(r, WamMsgType::kStateV2);
  StateMsgV2 m;
  m.view = get_tag(r);
  m.mature = r.boolean();
  // weight is declared u32; a wider varint is corruption, not data —
  // truncating it silently would desynchronize the balance arithmetic.
  auto weight = r.varint();
  if (weight > std::numeric_limits<std::uint32_t>::max()) {
    throw util::DecodeError("state v2 weight out of range: " +
                            std::to_string(weight));
  }
  m.weight = static_cast<std::uint32_t>(weight);
  auto table = get_id_table(r);
  m.owned = get_id_list(r, table);
  m.preferred = get_id_list(r, table);
  m.quarantined = get_id_list(r, table);
  r.expect_end();
  return m;
}

util::Bytes encode_balance_v2(const BalanceMsgV2& m) {
  return encode_allocation_body_v2(m, WamMsgType::kBalanceV2);
}

util::Bytes encode_alloc_v2(const BalanceMsgV2& m) {
  return encode_allocation_body_v2(m, WamMsgType::kAllocV2);
}

BalanceMsgV2 decode_balance_v2(util::ByteView buf) {
  return decode_allocation_body_v2(buf, WamMsgType::kBalanceV2);
}

BalanceMsgV2 decode_alloc_v2(util::ByteView buf) {
  return decode_allocation_body_v2(buf, WamMsgType::kAllocV2);
}

util::Bytes encode_arp_share(const ArpShareMsg& m) {
  util::ByteWriter w(1 + 4 + 4 * m.ips.size());
  w.u8(static_cast<std::uint8_t>(WamMsgType::kArpShare));
  w.u32(static_cast<std::uint32_t>(m.ips.size()));
  for (auto ip : m.ips) w.u32(ip);
  return w.take();
}

ArpShareMsg decode_arp_share(util::ByteView buf) {
  util::ByteReader r(buf);
  check_type(r, WamMsgType::kArpShare);
  ArpShareMsg m;
  auto n = get_count(r, 4);
  m.ips.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.ips.push_back(r.u32());
  r.expect_end();
  return m;
}

util::Bytes encode_notify(const NotifyMsg& m) {
  util::ByteWriter w(1 + kTagSize + 4 + m.group.size() + 1 + 4 + 4 +
                     m.reason.size());
  w.u8(static_cast<std::uint8_t>(WamMsgType::kNotify));
  put_tag(w, m.view);
  w.str(m.group);
  w.boolean(m.fenced);
  w.u32(m.cooldown_ms);
  w.str(m.reason);
  return w.take();
}

NotifyMsg decode_notify(util::ByteView buf) {
  util::ByteReader r(buf);
  check_type(r, WamMsgType::kNotify);
  NotifyMsg m;
  m.view = get_tag(r);
  m.group = r.str();
  m.fenced = r.boolean();
  m.cooldown_ms = r.u32();
  m.reason = r.str();
  r.expect_end();
  return m;
}

WamMsgType peek_type(util::ByteView buf) {
  util::ByteReader r(buf);
  auto t = r.u8();
  if (std::find(std::begin(kReservedCodes), std::end(kReservedCodes), t) !=
      std::end(kReservedCodes)) {
    throw util::DecodeError("reserved wackamole message type " +
                            std::to_string(t));
  }
  if (t == 0 || t > kWamMsgTypeLast) {
    throw util::DecodeError("unknown wackamole message type " +
                            std::to_string(t));
  }
  return static_cast<WamMsgType>(t);
}

}  // namespace wam::wackamole
