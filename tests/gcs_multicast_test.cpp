// GCS over IP multicast (the real Spread's transport mode): daemons form
// views and order messages exactly as over broadcast, but bystander hosts
// on the LAN never receive daemon traffic.
#include <gtest/gtest.h>

#include "gcs_fixture.hpp"
#include "util/assert.hpp"

namespace wam::testing {
namespace {

struct McastCluster : GcsCluster {
  explicit McastCluster(int n)
      : GcsCluster(n, gcs::Config::spread_tuned().with_multicast()) {}
};

TEST(GcsMulticast, ClusterForms) {
  McastCluster c(4);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2, 3}}, "multicast formation");
}

TEST(GcsMulticast, FaultAndRecovery) {
  McastCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  c.hosts[2]->set_interface_up(0, false);
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1}}, "multicast fault");
  c.hosts[2]->set_interface_up(0, true);
  c.run(sim::seconds(5.0));
  c.expect_views({{0, 1, 2}}, "multicast recovery");
}

TEST(GcsMulticast, BystanderHostsSeeNoDaemonTraffic) {
  McastCluster c(3);
  // A bystander on the same LAN with a socket on the GCS port.
  net::Host bystander(c.sched, c.fabric, "bystander", &c.log);
  bystander.add_interface(c.seg, net::Ipv4Address(10, 0, 0, 99), 24);
  std::uint64_t seen = 0;
  bystander.open_udp(c.daemons[0]->config().port,
                     [&](const net::Host::UdpContext&,
                         const util::SharedBytes&) {
                       ++seen;
                     });
  c.start_all();
  c.run(sim::seconds(10.0));
  EXPECT_EQ(seen, 0u) << "multicast mode must not leak daemon frames";
}

TEST(GcsMulticast, BroadcastModeDoesLeakByComparison) {
  GcsCluster c(3, gcs::Config::spread_tuned());  // broadcast transport
  net::Host bystander(c.sched, c.fabric, "bystander", &c.log);
  bystander.add_interface(c.seg, net::Ipv4Address(10, 0, 0, 99), 24);
  std::uint64_t seen = 0;
  bystander.open_udp(c.daemons[0]->config().port,
                     [&](const net::Host::UdpContext&,
                         const util::SharedBytes&) {
                       ++seen;
                     });
  c.start_all();
  c.run(sim::seconds(10.0));
  EXPECT_GT(seen, 0u);
}

TEST(GcsMulticast, OrderingWorksOverMulticast) {
  McastCluster c(3);
  c.start_all();
  c.run(sim::seconds(5.0));
  std::vector<std::vector<std::string>> got(3);
  std::vector<std::unique_ptr<gcs::Client>> clients;
  for (int i = 0; i < 3; ++i) {
    gcs::ClientCallbacks cb;
    auto idx = static_cast<std::size_t>(i);
    cb.on_message = [&got, idx](const gcs::GroupMessage& m) {
      got[idx].emplace_back(m.payload.begin(), m.payload.end());
    };
    auto cl = std::make_unique<gcs::Client>("m" + std::to_string(i),
                                            std::move(cb));
    ASSERT_TRUE(cl->connect(*c.daemons[idx]));
    cl->join("g");
    clients.push_back(std::move(cl));
  }
  c.run(sim::seconds(1.0));
  for (int i = 0; i < 9; ++i) {
    clients[static_cast<std::size_t>(i % 3)]->multicast(
        "g", util::Bytes{static_cast<std::uint8_t>('0' + i)});
  }
  c.run(sim::seconds(1.0));
  ASSERT_EQ(got[0].size(), 9u);
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(got[1], got[2]);
}

TEST(GcsMulticast, InvalidGroupRejected) {
  auto config = gcs::Config::spread_tuned();
  config.multicast_group = net::Ipv4Address(10, 0, 0, 1);
  EXPECT_THROW(config.validate(), util::ContractViolation);
}

}  // namespace
}  // namespace wam::testing
