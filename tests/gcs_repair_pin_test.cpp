// Repair traffic pinned exactly. A 4-daemon cluster sends 40 messages
// under 20 % loss, then heals, for both ordering engines and every service
// level. The NACK, retransmission, token-retry and delivery counts and each
// daemon's delivery order are exact functions of the seed, so any change
// to how gaps are found or filled shows up here as a number, not as a
// "> 0" that still holds.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "gcs_fixture.hpp"

namespace wam::testing {
namespace {

struct Rec {
  std::vector<std::string> messages;
  std::unique_ptr<gcs::Client> client;
  explicit Rec(const std::string& name) {
    gcs::ClientCallbacks cb;
    cb.on_message = [this](const gcs::GroupMessage& m) {
      messages.emplace_back(m.payload.begin(), m.payload.end());
    };
    client = std::make_unique<gcs::Client>(name, std::move(cb));
  }
};

/// FNV-1a over the delivery order, one '\n' after each message.
std::string digest(const std::vector<std::string>& messages) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& m : messages) {
    for (char c : m + "\n") {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Pin {
  const char* name;
  bool token_ring;
  gcs::ServiceType service;
  std::uint64_t nacks_sent;
  std::uint64_t retransmissions;
  std::uint64_t token_retries;
  std::uint64_t data_delivered;
  std::uint64_t fifo_delivered;
  std::array<const char*, 4> order;  // digest per daemon
};

void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.name; }

class RepairPin : public ::testing::TestWithParam<Pin> {};

TEST_P(RepairPin, LossyBurstThenHeal) {
  const Pin& pin = GetParam();
  auto config = gcs::Config::spread_tuned();
  if (pin.token_ring) config = config.with_token_ring();
  GcsCluster c(4, config);
  c.start_all();
  c.run(sim::seconds(5.0));
  std::vector<std::unique_ptr<Rec>> recs;
  for (std::size_t i = 0; i < c.daemons.size(); ++i) {
    recs.push_back(std::make_unique<Rec>("r" + std::to_string(i)));
    ASSERT_TRUE(recs.back()->client->connect(*c.daemons[i]));
    recs.back()->client->join("g");
  }
  c.run(sim::seconds(1.0));

  // One message every 10 ms, round-robin over the daemons, so causal
  // sends carry dependencies that a lost predecessor can hold up.
  c.fabric.segment_config(c.seg).drop_probability = 0.20;
  for (int i = 0; i < 40; ++i) {
    auto text = "m" + std::to_string(i);
    recs[static_cast<std::size_t>(i % 4)]->client->multicast(
        "g", util::Bytes(text.begin(), text.end()), pin.service);
    c.run(sim::milliseconds(10));
  }
  c.run(sim::seconds(9.6));
  c.fabric.segment_config(c.seg).drop_probability = 0.0;
  c.run(sim::seconds(5.0));

  std::uint64_t nacks = 0, rexmit = 0, retries = 0, data = 0, fifo = 0;
  for (auto& d : c.daemons) {
    nacks += d->counters().nacks_sent;
    rexmit += d->counters().retransmissions;
    retries += d->counters().token_retries;
    data += d->counters().data_delivered;
    fifo += d->counters().fifo_delivered;
  }
  EXPECT_EQ(nacks, pin.nacks_sent);
  EXPECT_EQ(rexmit, pin.retransmissions);
  EXPECT_EQ(retries, pin.token_retries);
  EXPECT_EQ(data, pin.data_delivered);
  EXPECT_EQ(fifo, pin.fifo_delivered);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(digest(recs[i]->messages), pin.order[i])
        << "daemon " << i << " delivered " << recs[i]->messages.size();
  }
}

using gcs::ServiceType;
INSTANTIATE_TEST_SUITE_P(
    GcsRepair, RepairPin,
    ::testing::Values(
        Pin{"sequencer_agreed", false, ServiceType::kAgreed, 25, 20, 0, 176,
            0,
            {"9dc85c99b1f5ba49", "9dc85c99b1f5ba49", "9dc85c99b1f5ba49",
             "9dc85c99b1f5ba49"}},
        Pin{"sequencer_safe", false, ServiceType::kSafe, 25, 20, 0, 176, 0,
            {"9dc85c99b1f5ba49", "9dc85c99b1f5ba49", "9dc85c99b1f5ba49",
             "9dc85c99b1f5ba49"}},
        Pin{"sequencer_fifo", false, ServiceType::kFifo, 50, 49, 0, 16, 160,
            {"ef7bc208653084ef", "3a4b0fd34bb21d9b", "fad1762f3486f273",
             "8326019b304b9a17"}},
        Pin{"sequencer_causal", false, ServiceType::kCausal, 50, 49, 0, 16,
            160,
            {"ef7bc208653084ef", "e4efc80b080bf8ed", "9b726a2c63d76673",
             "8326019b304b9a17"}},
        Pin{"token_agreed", true, ServiceType::kAgreed, 0, 21, 224, 176, 0,
            {"715a31127f237737", "715a31127f237737", "715a31127f237737",
             "715a31127f237737"}},
        Pin{"token_safe", true, ServiceType::kSafe, 0, 21, 224, 176, 0,
            {"715a31127f237737", "715a31127f237737", "715a31127f237737",
             "715a31127f237737"}},
        Pin{"token_fifo", true, ServiceType::kFifo, 24, 37, 564, 16, 160,
            {"7f10e95884c181fd", "b12f9765b77ab7bf", "efe2b8906a82cddb",
             "bd3ae9fe1b338153"}},
        Pin{"token_causal", true, ServiceType::kCausal, 24, 37, 564, 16, 160,
            {"7f10e95884c181fd", "b902659930ffe683", "efe2b8906a82cddb",
             "531287f5b300e31b"}}),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace wam::testing
