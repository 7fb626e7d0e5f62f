// Horizontal Usite scale-out end to end (docs/SCALING.md): N gateway
// listeners fronting one Usite with consistent-hash client routing,
// session tokens and resumption tickets honoured on every replica
// (shared broker / shared STEK), NJS partition routing through the
// server, and a journal handoff under a mid-flight chunked transfer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "ajo/tasks.h"
#include "client/sync_client.h"
#include "common/test_env.h"
#include "net/session.h"
#include "njs/cluster.h"

namespace unicore {
namespace {

/// One Usite with three gateway replicas and two NJS replicas.
struct ScaleoutSite {
  grid::Grid grid{77};
  crypto::TrustStore trust;
  crypto::Credential user;
  server::UsiteServer* server = nullptr;

  ScaleoutSite() {
    grid::Grid::SiteSpec spec;
    spec.config.name = "FZ-Juelich";
    spec.config.gateway_host = "gw.fz-juelich.de";
    spec.config.port = 4433;
    spec.config.gateway_replicas = 3;
    spec.config.njs_replicas = 2;
    njs::Njs::VsiteConfig vsite;
    vsite.system = batch::make_cray_t3e("T3E-small", 16);
    spec.vsites.push_back(std::move(vsite));
    server = &grid.add_site(std::move(spec));
    user = grid.create_user("Jane Doe", "Test Org", "jane@example.de");
    (void)grid.map_user(user.certificate.subject, "FZ-Juelich", "ucjdoe",
                        {"project-a"});
    trust = grid.make_trust_store();
  }

  std::unique_ptr<client::UnicoreClient> make_client(
      const std::string& host = "ws.example.de") {
    client::UnicoreClient::Config config;
    config.host = host;
    config.user = user;
    config.trust = &trust;
    config.transfer_streams = 0;
    return std::make_unique<client::UnicoreClient>(grid.engine(),
                                                   grid.network(),
                                                   grid.rng(), config);
  }

  ajo::AbstractJobObject job(const std::string& name) {
    client::JobBuilder builder(name);
    builder.destination("FZ-Juelich", "T3E-small").account_group("project-a");
    client::TaskOptions options;
    options.resources = {1, 600, 64, 0, 16};
    options.behavior.nominal_seconds = 1;
    builder.script("main", "./main\n", options);
    return builder.build(user.certificate.subject).value();
  }
};

TEST(Scaleout, EveryGatewayListenerServesTheSite) {
  ScaleoutSite site;
  auto addresses = site.server->gateway_addresses();
  ASSERT_EQ(addresses.size(), 3u);
  ASSERT_EQ(site.server->gateway_replica_count(), 3u);

  std::vector<ajo::JobToken> tokens;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    auto async_client = site.make_client();
    client::SyncClient client(site.grid.engine(), *async_client);
    ASSERT_TRUE(client.connect(addresses[i]).ok()) << "replica " << i;
    auto token = client.submit(site.job("via-gw" + std::to_string(i)));
    ASSERT_TRUE(token.ok()) << token.error().to_string();
    tokens.push_back(token.value());
  }
  site.grid.engine().run();

  // Jobs consigned through different listeners are all visible through
  // any one of them.
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(addresses[2]).ok());
  auto listed = client.list();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().size(), tokens.size());
}

TEST(Scaleout, ConsistentHashRoutingIsStableAndOnRing) {
  ScaleoutSite site;
  auto addresses = site.server->gateway_addresses();
  const crypto::DistinguishedName& dn = site.user.certificate.subject;
  net::Address routed = site.server->route_address(dn);
  // The routed address is one of the advertised listeners and the
  // choice is deterministic for a DN.
  EXPECT_NE(std::find(addresses.begin(), addresses.end(), routed),
            addresses.end());
  EXPECT_EQ(site.server->route_address(dn), routed);
}

TEST(Scaleout, SessionTokenMintedOnOneReplicaValidatesOnAnother) {
  ScaleoutSite site;
  auto addresses = site.server->gateway_addresses();

  auto owner = site.make_client();
  client::SyncClient owner_sync(site.grid.engine(), *owner);
  ASSERT_TRUE(owner_sync.connect(addresses[0]).ok());
  ASSERT_TRUE(owner_sync.open_session().ok());

  // The same bearer token authenticates on a different replica's
  // listener: one shared SessionBroker behind every gateway.
  auto roamer = site.make_client("portal.example.de");
  client::SyncClient roamer_sync(site.grid.engine(), *roamer);
  ASSERT_TRUE(roamer_sync.connect(addresses[2]).ok());
  roamer->set_session_token(owner->session_token());
  ASSERT_TRUE(roamer_sync.list_storages().ok());
}

TEST(Scaleout, ResumptionTicketIsHonouredAcrossReplicas) {
  ScaleoutSite site;
  auto addresses = site.server->gateway_addresses();

  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(addresses[0]).ok());
  ASSERT_TRUE(client.list_storages().ok());
  async_client->disconnect();

  // The client cached a resumption ticket for replica 0's endpoint.
  // Re-point it at replica 1: the ticket decrypts there too (one STEK
  // across all listeners), so the reconnect skips the public-key
  // handshake.
  std::string from = net::SessionCache::key_for(addresses[0].host,
                                                addresses[0].port);
  std::string to = net::SessionCache::key_for(addresses[1].host,
                                              addresses[1].port);
  const net::SessionCache::Entry* cached =
      async_client->sessions().get(from, 0);
  ASSERT_NE(cached, nullptr);
  async_client->sessions().put(to, *cached);

  ASSERT_TRUE(client.connect(addresses[1]).ok());
  EXPECT_TRUE(async_client->session_resumed());
  EXPECT_TRUE(client.list_storages().ok());
}

TEST(Scaleout, TokenRequestsRouteToThePartitionOwner) {
  ScaleoutSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.server->address()).ok());

  // Consign enough distinct jobs that both NJS replicas mint tokens.
  std::vector<ajo::JobToken> tokens;
  for (int i = 0; i < 8; ++i) {
    auto token = client.submit(site.job("spread-" + std::to_string(i)));
    ASSERT_TRUE(token.ok()) << token.error().to_string();
    tokens.push_back(token.value());
  }
  std::set<std::uint64_t> partitions;
  for (ajo::JobToken token : tokens)
    partitions.insert(njs::token_partition(token));
  EXPECT_EQ(partitions.size(), 2u);

  site.grid.engine().run();
  for (ajo::JobToken token : tokens) {
    auto outcome = client.query(token, ajo::QueryService::Detail::kSummary);
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful);
  }
}

TEST(Scaleout, NjsKillUnderLoadHandsOffAndKeepsTokensServable) {
  ScaleoutSite site;
  auto async_client = site.make_client();
  client::SyncClient client(site.grid.engine(), *async_client);
  ASSERT_TRUE(client.connect(site.server->address()).ok());

  std::vector<ajo::JobToken> tokens;
  for (int i = 0; i < 8; ++i) {
    auto token = client.submit(site.job("load-" + std::to_string(i)));
    ASSERT_TRUE(token.ok());
    tokens.push_back(token.value());
  }
  site.server->njs_cluster().kill(1);
  ASSERT_EQ(site.server->njs_cluster().handoffs(), 1u);
  site.grid.engine().run();

  // Every token — including those minted by the dead replica — still
  // answers queries, and nothing was re-submitted to the batch tier.
  for (ajo::JobToken token : tokens) {
    auto outcome = client.query(token, ajo::QueryService::Detail::kSummary);
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome.value().status, ajo::ActionStatus::kSuccessful);
  }
  EXPECT_EQ(site.server->njs_cluster().primary().subsystem("T3E-small")
                ->stats().jobs_submitted,
            8u);
}

// A journal handoff under a *mid-flight chunked transfer*: FZ streams
// a 16 MiB file into a job owned by RUKA's NJS replica 1; replica 1 is
// killed while chunks are in flight and replica 0 adopts its journal.
// The sender's resume ladder re-opens by durable key, the open routes
// to the adopter, and the delivery completes bit-exact.
TEST(Scaleout, HandoffUnderMidFlightChunkedTransfer) {
  grid::Grid grid{91};
  grid::Grid::SiteSpec fz_spec;
  fz_spec.config.name = "FZ-Juelich";
  fz_spec.config.gateway_host = "gw.fz-juelich.de";
  fz_spec.config.port = 4433;
  njs::Njs::VsiteConfig fz_vsite;
  fz_vsite.system = batch::make_cray_t3e("T3E-600", 64);
  fz_spec.vsites.push_back(std::move(fz_vsite));
  server::UsiteServer& fz = grid.add_site(std::move(fz_spec));

  grid::Grid::SiteSpec ruka_spec;
  ruka_spec.config.name = "RUKA";
  ruka_spec.config.gateway_host = "gw.ruka.de";
  ruka_spec.config.port = 4433;
  ruka_spec.config.njs_replicas = 2;
  njs::Njs::VsiteConfig ruka_vsite;
  ruka_vsite.system = batch::make_ibm_sp2("SP2", 32);
  ruka_spec.vsites.push_back(std::move(ruka_vsite));
  server::UsiteServer& ruka = grid.add_site(std::move(ruka_spec));

  crypto::Credential user =
      grid.create_user("Jane Doe", "Test Org", "jane@example.de");
  (void)grid.map_user(user.certificate.subject, "RUKA", "rkjdoe",
                      {"project-a"});
  grid.connect_all_peers();

  // The receiver job is minted by replica 1, so its token lives in
  // partition 1 and every delivery for it routes there.
  ajo::AbstractJobObject job;
  job.set_name("receiver");
  job.vsite = "SP2";
  job.user = user.certificate.subject;
  auto task = std::make_unique<ajo::ExecuteScriptTask>();
  task->set_name("prepare");
  task->script = "true\n";
  task->set_resource_request({1, 600, 64, 0, 8});
  task->behavior.nominal_seconds = 1;
  job.add(std::move(task));
  gateway::AuthenticatedUser auth{user.certificate.subject, "rkjdoe",
                                  {"project-a"}};
  auto receiver = ruka.njs_cluster().replica(1).consign(job, auth,
                                                        user.certificate);
  ASSERT_TRUE(receiver.ok());
  ASSERT_EQ(njs::token_partition(receiver.value()), 1u);
  grid.engine().run();

  fz.set_transfer_streams(4);
  xfer::TransferOptions options = fz.transfer_options();
  options.backoff.initial_us = sim::msec(250);
  options.backoff.max_us = sim::sec(2);
  options.backoff.jitter = 0.0;
  fz.set_transfer_options(options);
  fz.set_peer_request_timeout(sim::sec(3));

  // Kill the owning replica while chunks are in flight; auto-handoff
  // hands its journal — including the transfer's applied set — to
  // replica 0.
  grid.engine().at(grid.engine().now() + sim::msec(400),
                   [&ruka] { ruka.njs_cluster().kill(1); });

  auto blob = std::make_shared<const uspace::FileBlob>(
      uspace::FileBlob::synthetic(16 << 20, 19));
  std::optional<util::Status> done;
  fz.deliver_files(njs::RemoteJobHandle{"RUKA", receiver.value()},
                   {{"handoff.bin", blob}},
                   [&](util::Status status) { done = status; });
  while (!done && grid.engine().step()) {
  }
  ASSERT_TRUE(done.has_value());
  ASSERT_TRUE(done->ok()) << done->error().to_string();
  EXPECT_EQ(ruka.njs_cluster().handoffs(), 1u);

  // The adopter serves the file bit-exact under the original token and
  // holds no leaked transfer state.
  auto delivered = ruka.njs_cluster().replica(0).fetch_file_shared(
      receiver.value(), "handoff.bin");
  ASSERT_TRUE(delivered.ok()) << delivered.error().to_string();
  EXPECT_EQ(delivered.value()->checksum(), blob->checksum());
  EXPECT_EQ(ruka.xfer_service_replica(0).inbound_open(), 0u);
}

TEST(Scaleout, KilledReplicaIsSkippedByRingRoutingMidSession) {
  ScaleoutSite site;
  const crypto::DistinguishedName& dn = site.user.certificate.subject;
  std::vector<net::Address> route = site.server->route_addresses(dn);
  ASSERT_EQ(route.size(), 3u);
  // The failover list's head is the plain routed address; the rest are
  // the clockwise ring walk.
  EXPECT_EQ(route[0], site.server->route_address(dn));

  auto async_client = site.make_client();
  client::SyncClient sync(site.grid.engine(), *async_client);
  ASSERT_TRUE(sync.connect(route[0]).ok());
  auto first = sync.submit(site.job("before-kill"));
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  site.grid.engine().run();

  // Kill the replica this session landed on: listener closed, ring
  // entry removed, live sessions severed.
  site.server->stop_gateway_replica(route[0].port - 4433);

  std::vector<net::Address> rerouted = site.server->route_addresses(dn);
  ASSERT_EQ(rerouted.size(), 2u);
  EXPECT_EQ(rerouted[0], route[1]);  // failover preserves ring order
  EXPECT_EQ(std::find(rerouted.begin(), rerouted.end(), route[0]),
            rerouted.end());
  EXPECT_EQ(site.server->route_address(dn), route[1]);

  // The severed session cannot serve requests any more.
  auto dead_list = sync.list();
  EXPECT_FALSE(dead_list.ok());

  // connect_any against the ORIGINAL preference list: the dead head is
  // skipped, the handshake lands on the next ring node, and the new
  // session sees the consigned job.
  auto failover_client = site.make_client();
  std::optional<util::Status> connected;
  failover_client->connect_any(
      route, [&](util::Status status) { connected = status; });
  while (!connected && site.grid.engine().step()) {
  }
  ASSERT_TRUE(connected.has_value());
  ASSERT_TRUE(connected->ok()) << connected->error().to_string();
  client::SyncClient failover_sync(site.grid.engine(), *failover_client);
  auto listed = failover_sync.list();
  ASSERT_TRUE(listed.ok()) << listed.error().to_string();
  EXPECT_EQ(listed.value().size(), 1u);
  auto second = failover_sync.submit(site.job("after-failover"));
  EXPECT_TRUE(second.ok()) << second.error().to_string();
}

TEST(Scaleout, ConnectAnyFailsCleanlyWhenEveryReplicaIsDead) {
  ScaleoutSite site;
  std::vector<net::Address> route =
      site.server->route_addresses(site.user.certificate.subject);
  for (std::size_t i = 0; i < 3; ++i) site.server->stop_gateway_replica(i);

  auto client = site.make_client();
  std::optional<util::Status> connected;
  client->connect_any(route, [&](util::Status status) { connected = status; });
  while (!connected && site.grid.engine().step()) {
  }
  ASSERT_TRUE(connected.has_value());
  EXPECT_FALSE(connected->ok());
  EXPECT_FALSE(client->connected());
}

}  // namespace
}  // namespace unicore
