// Host-wide address ownership index: IPv4 address -> the interfaces that
// hold it, as primary address or as alias (virtual IP).
//
// Every received IPv4 packet asks "is this address mine, and on which
// interface", every duplicate-address probe asks it of each peer NIC, and
// every VIP acquire/release adds or drops an alias. One open-addressing
// table (linear probing, backward-shift deletion) answers all three with
// one or two cache lines touched, and alias churn allocates nothing once
// the table has grown to the host's working set.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/address.hpp"

namespace wam::net {

class AddressIndex {
 public:
  /// Interfaces per host the masks can describe.
  static constexpr int kMaxInterfaces = 32;

  /// Bit i set: interface i holds the address.
  struct Owners {
    std::uint32_t primary = 0;
    std::uint32_t alias = 0;

    [[nodiscard]] std::uint32_t any() const { return primary | alias; }
  };

  [[nodiscard]] Owners find(Ipv4Address ip) const {
    if (used_ == 0) return {};
    for (std::size_t i = home(ip.value());; i = next(i)) {
      const Slot& s = slots_[i];
      if (s.empty()) return {};
      if (s.ip == ip.value()) return s.owners;
    }
  }

  /// Lowest interface index holding `ip`, or -1.
  [[nodiscard]] int first_owner(Ipv4Address ip) const {
    const auto any = find(ip).any();
    return any == 0 ? -1 : std::countr_zero(any);
  }

  void add_primary(Ipv4Address ip, int ifindex) {
    slot_for(ip).owners.primary |= bit(ifindex);
  }
  void add_alias(Ipv4Address ip, int ifindex) {
    slot_for(ip).owners.alias |= bit(ifindex);
  }
  /// Drops the alias only: a primary address stays owned.
  void remove_alias(Ipv4Address ip, int ifindex) {
    if (used_ == 0) return;
    for (std::size_t i = home(ip.value());; i = next(i)) {
      Slot& s = slots_[i];
      if (s.empty()) return;
      if (s.ip != ip.value()) continue;
      s.owners.alias &= ~bit(ifindex);
      if (s.empty()) erase_at(i);
      return;
    }
  }

  /// fn(ip, owners) for every address, in table order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.empty()) fn(Ipv4Address(s.ip), s.owners);
    }
  }

 private:
  struct Slot {
    std::uint32_t ip = 0;
    Owners owners;
    [[nodiscard]] bool empty() const { return owners.any() == 0; }
  };

  static std::uint32_t bit(int ifindex) {
    return std::uint32_t{1} << static_cast<unsigned>(ifindex);
  }
  [[nodiscard]] std::size_t home(std::uint32_t ip) const {
    // Fibonacci hashing: consecutive VIPs spread over the table.
    return static_cast<std::size_t>(
        (std::uint64_t{ip} * 0x9E3779B97F4A7C15ull) >> (64 - bits_));
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  /// The slot of `ip`, claimed empty if absent (growing the table first).
  Slot& slot_for(Ipv4Address ip) {
    if ((used_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(ip.value());
    for (; !slots_[i].empty(); i = next(i)) {
      if (slots_[i].ip == ip.value()) return slots_[i];
    }
    ++used_;
    slots_[i].ip = ip.value();
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    bits_ = old.empty() ? 4 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, Slot{});
    for (const Slot& s : old) {
      if (s.empty()) continue;
      std::size_t i = home(s.ip);
      while (!slots_[i].empty()) i = next(i);
      slots_[i] = s;
    }
  }

  /// Empty slot `hole` and shift later members of its probe run back, so
  /// every lookup still finds its key before the first empty slot.
  void erase_at(std::size_t hole) {
    --used_;
    slots_[hole] = Slot{};
    for (std::size_t j = next(hole); !slots_[j].empty(); j = next(j)) {
      const std::size_t h = home(slots_[j].ip);
      // Movable iff its home is not cyclically within (hole, j].
      const bool stays =
          hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      slots_[j] = Slot{};
      hole = j;
    }
  }

  std::vector<Slot> slots_;  // size 2^bits_, or empty
  int bits_ = 0;
  std::size_t used_ = 0;
};

}  // namespace wam::net
