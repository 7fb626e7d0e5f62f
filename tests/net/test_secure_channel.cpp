#include "net/secure_channel.h"

#include <gtest/gtest.h>

#include "crypto/modmath.h"
#include "util/thread_pool.h"

namespace unicore::net {
namespace {

constexpr std::int64_t kYear = 365 * 86'400LL;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Test";
  out.common_name = cn;
  return out;
}

struct ChannelFixture : public ::testing::Test {
  sim::Engine engine;
  util::Rng rng{3};
  Network network{engine, util::Rng(4)};
  crypto::CertificateAuthority ca{dn("CA"), rng, kSimulationEpoch, 10 * kYear};
  crypto::TrustStore trust;
  crypto::Credential server_cred = ca.issue_credential(
      dn("server"), rng, kSimulationEpoch, kYear,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential client_cred = ca.issue_credential(
      dn("client"), rng, kSimulationEpoch, kYear,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);

  std::shared_ptr<SecureChannel> server_channel;
  std::shared_ptr<SecureChannel> client_channel;
  util::Status server_status{util::make_error(util::ErrorCode::kInternal, "unset")};
  util::Status client_status{util::make_error(util::ErrorCode::kInternal, "unset")};

  void SetUp() override { trust.add_root(ca.certificate()); }

  SecureChannel::Config server_config() {
    SecureChannel::Config config;
    config.credential = server_cred;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageClientAuth;
    return config;
  }
  SecureChannel::Config client_config() {
    SecureChannel::Config config;
    config.credential = client_cred;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageServerAuth;
    return config;
  }

  void establish(SecureChannel::Config client_cfg,
                 SecureChannel::Config server_cfg) {
    (void)network.listen({"server", 443},
                         [&, server_cfg](std::shared_ptr<Endpoint> endpoint) {
                           server_channel = SecureChannel::as_server(
                               engine, rng, std::move(endpoint), server_cfg,
                               [&](util::Status s) { server_status = s; });
                         });
    auto endpoint = network.connect("client", {"server", 443});
    ASSERT_TRUE(endpoint.ok());
    client_channel = SecureChannel::as_client(
        engine, rng, std::move(endpoint.value()), client_cfg,
        [&](util::Status s) { client_status = s; });
    engine.run();
  }
};

TEST_F(ChannelFixture, MutualHandshakeSucceeds) {
  establish(client_config(), server_config());
  EXPECT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_TRUE(server_status.ok()) << server_status.to_string();
  ASSERT_TRUE(client_channel->established());
  ASSERT_TRUE(server_channel->established());
  // Mutual authentication: each side saw the other's certificate.
  EXPECT_EQ(client_channel->peer_certificate().subject, dn("server"));
  EXPECT_EQ(server_channel->peer_certificate().subject, dn("client"));
}

TEST_F(ChannelFixture, DataFlowsBothWaysEncrypted) {
  establish(client_config(), server_config());
  std::string at_server, at_client;
  server_channel->set_receiver([&](util::Bytes&& m) {
    at_server = util::to_string(m);
    server_channel->send(util::to_bytes("reply: " + at_server));
  });
  client_channel->set_receiver(
      [&](util::Bytes&& m) { at_client = util::to_string(m); });
  client_channel->send(util::to_bytes("job data"));
  engine.run();
  EXPECT_EQ(at_server, "job data");
  EXPECT_EQ(at_client, "reply: job data");
  EXPECT_EQ(client_channel->messages_sent(), 1u);
  EXPECT_EQ(client_channel->messages_received(), 1u);
}

TEST_F(ChannelFixture, ManyMessagesKeepSequence) {
  establish(client_config(), server_config());
  std::vector<int> received;
  server_channel->set_receiver([&](util::Bytes&& m) {
    received.push_back(std::stoi(util::to_string(m)));
  });
  for (int i = 0; i < 100; ++i)
    client_channel->send(util::to_bytes(std::to_string(i)));
  engine.run();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST_F(ChannelFixture, WrongUsageClientRejected) {
  // Client presents a client-auth certificate where the server demands
  // server-auth peers (the NJS-NJS path).
  SecureChannel::Config strict_server = server_config();
  strict_server.required_peer_usage = crypto::kUsageServerAuth;
  establish(client_config(), strict_server);
  EXPECT_FALSE(client_status.ok());  // alert propagates back
  EXPECT_FALSE(server_status.ok());
}

TEST_F(ChannelFixture, UntrustedServerRejectedByClient) {
  util::Rng rogue_rng(5);
  crypto::CertificateAuthority rogue(dn("Rogue CA"), rogue_rng,
                                     kSimulationEpoch, kYear);
  SecureChannel::Config bad_server = server_config();
  bad_server.credential = rogue.issue_credential(
      dn("server"), rogue_rng, kSimulationEpoch, kYear,
      crypto::kUsageServerAuth);
  establish(client_config(), bad_server);
  EXPECT_FALSE(client_status.ok());
  EXPECT_FALSE(client_channel->established());
}

TEST_F(ChannelFixture, HandshakeTimesOutOnTotalLoss) {
  LinkProfile dead;
  dead.loss_probability = 1.0;
  network.set_link("client", "server", dead);
  establish(client_config(), server_config());
  EXPECT_FALSE(client_status.ok());
  EXPECT_EQ(client_status.error().code, util::ErrorCode::kTimeout);
  EXPECT_FALSE(server_status.ok());
}

TEST_F(ChannelFixture, V2PeersNegotiateVersionAndFeatures) {
  // The hello tail still carries version + feature word; two in-tree
  // peers agree on the v3 baseline and record it on both sides.
  EXPECT_EQ(kProtocolVersion, 3);
  establish(client_config(), server_config());
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  ASSERT_TRUE(server_status.ok()) << server_status.to_string();
  EXPECT_EQ(client_channel->negotiated_version(), 3);
  EXPECT_EQ(server_channel->negotiated_version(), 3);
}

// --- v3 hello baseline against raw peers ---------------------------------
// A raw Endpoint plays the other side and writes hellos byte by byte, so
// the tests reach what no in-tree peer sends: another version, a set
// feature bit, a hello cut off before its tail.

/// ClientHello: u8 type | blob client_random | u64 dh_public, then the
/// `u8 version | u64 features` tail unless `with_tail` is false.
util::Bytes raw_client_hello(std::uint8_t version, std::uint64_t features,
                             bool with_tail = true) {
  util::ByteWriter w;
  w.u8(1);  // kClientHello
  w.blob(util::Bytes(32, 0xab));
  w.u64(12345);
  if (with_tail) {
    w.u8(version);
    w.u64(features);
  }
  return w.take();
}

/// ClientHelloResumed: u8 type | blob random | blob ticket | tail |
/// 32-byte binder. The ticket is garbage — the tail is checked first.
util::Bytes raw_resumed_hello(std::uint8_t version) {
  util::ByteWriter w;
  w.u8(7);  // kClientHelloResumed
  w.blob(util::Bytes(32, 0xab));
  w.blob(util::Bytes(48, 0xcd));
  w.u8(version);
  w.u64(0);
  w.raw(util::Bytes(32, 0xef));
  return w.take();
}

struct RawPeerFixture : public ChannelFixture {
  std::shared_ptr<Endpoint> raw;
  std::vector<util::Bytes> raw_received;
  bool raw_closed = false;

  void attach(std::shared_ptr<Endpoint> endpoint) {
    raw = std::move(endpoint);
    raw->set_receiver(
        [this](util::Bytes&& wire) { raw_received.push_back(wire); });
    raw->set_close_handler([this] { raw_closed = true; });
  }

  /// Sends `hello` from a raw client to a server channel and runs.
  void hello_to_server(util::Bytes hello) {
    (void)network.listen({"server", 443},
                         [this](std::shared_ptr<Endpoint> endpoint) {
                           server_channel = SecureChannel::as_server(
                               engine, rng, std::move(endpoint),
                               server_config(), [this](util::Status s) {
                                 server_status = s;
                               });
                         });
    auto endpoint = network.connect("client", {"server", 443});
    ASSERT_TRUE(endpoint.ok());
    attach(std::move(endpoint.value()));
    raw->send(std::move(hello));
    engine.run();
  }

  /// A raw server answering the client channel's ClientHello with a
  /// ServerHello carrying a valid chain, then `tail` (version echo and
  /// signature as the test wants them).
  void server_hello_to_client(util::Bytes tail) {
    (void)network.listen(
        {"server", 443}, [this, tail](std::shared_ptr<Endpoint> endpoint) {
          attach(std::move(endpoint));
          raw->set_receiver([this, tail](util::Bytes&& wire) {
            raw_received.push_back(wire);
            if (raw_received.size() != 1) return;
            util::ByteWriter w;
            w.u8(2);  // kServerHello
            w.blob(util::Bytes(32, 0x11));
            w.u64(6789);
            w.varint(1);
            w.blob(server_cred.certificate.der());
            w.raw(tail);
            raw->send(w.take());
          });
        });
    auto endpoint = network.connect("client", {"server", 443});
    ASSERT_TRUE(endpoint.ok());
    client_channel = SecureChannel::as_client(
        engine, rng, std::move(endpoint.value()), client_config(),
        [this](util::Status s) { client_status = s; });
    engine.run();
  }

  /// The raw peer saw the connection torn down with an alert (after
  /// whatever it received first).
  void expect_alert_and_close() const {
    ASSERT_FALSE(raw_received.empty());
    EXPECT_EQ(raw_received.back().front(), 5);  // kAlert
    EXPECT_TRUE(raw_closed);
  }
};

TEST_F(RawPeerFixture, ServerRefusesVersionTwoHello) {
  hello_to_server(raw_client_hello(2, 0));
  ASSERT_FALSE(server_status.ok());
  EXPECT_EQ(server_status.error().code, util::ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(server_channel->failed());
  expect_alert_and_close();
  EXPECT_EQ(raw_received.size(), 1u);  // no ServerHello went out
}

TEST_F(RawPeerFixture, ServerRefusesUnknownFeatureBit) {
  hello_to_server(raw_client_hello(kProtocolVersion, 1ull << 6));
  ASSERT_FALSE(server_status.ok());
  EXPECT_EQ(server_status.error().code, util::ErrorCode::kFailedPrecondition);
  expect_alert_and_close();
  EXPECT_EQ(raw_received.size(), 1u);
}

TEST_F(RawPeerFixture, ServerRefusesHelloWithoutTail) {
  // A v1 ClientHello: it ends at the DH value.
  hello_to_server(raw_client_hello(0, 0, /*with_tail=*/false));
  ASSERT_FALSE(server_status.ok());
  EXPECT_EQ(server_status.error().code, util::ErrorCode::kFailedPrecondition);
  expect_alert_and_close();
}

TEST_F(RawPeerFixture, ServerRefusesVersionTwoResumedHello) {
  hello_to_server(raw_resumed_hello(2));
  ASSERT_FALSE(server_status.ok());
  EXPECT_EQ(server_status.error().code, util::ErrorCode::kFailedPrecondition);
  expect_alert_and_close();
}

TEST_F(RawPeerFixture, ClientRefusesVersionTwoServerHello) {
  // A v2 server's echo: version 2 plus a feature word, then a signature.
  util::ByteWriter tail;
  tail.u8(2);
  tail.u64(0x3f);
  tail.u64(0);
  server_hello_to_client(tail.take());
  ASSERT_FALSE(client_status.ok());
  EXPECT_EQ(client_status.error().code, util::ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(client_channel->failed());
  expect_alert_and_close();
  // The raw server got the ClientHello, then the alert — no ClientCert.
  EXPECT_EQ(raw_received.size(), 2u);
}

TEST_F(RawPeerFixture, ClientRefusesServerHelloCutBeforeVersion) {
  server_hello_to_client({});
  ASSERT_FALSE(client_status.ok());
  EXPECT_EQ(client_status.error().code, util::ErrorCode::kInvalidArgument);
  expect_alert_and_close();
}

TEST_F(ChannelFixture, LargePayloadRoundTrip) {
  establish(client_config(), server_config());
  util::Bytes big = util::Rng(9).bytes(1 << 20);
  util::Bytes received;
  server_channel->set_receiver([&](util::Bytes&& m) { received = m; });
  client_channel->send(big);
  engine.run();
  EXPECT_EQ(received, big);
}

// --- batched records ---------------------------------------------------

TEST_F(ChannelFixture, BatchedSendsCoalesceIntoOneFrame) {
  establish(client_config(), server_config());
  std::vector<std::string> received;
  server_channel->set_receiver(
      [&](util::Bytes&& m) { received.push_back(util::to_string(m)); });
  for (int i = 0; i < 10; ++i)
    client_channel->send(util::to_bytes("msg" + std::to_string(i)));
  engine.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(received[static_cast<std::size_t>(i)],
              "msg" + std::to_string(i));
  // Ten messages queued in one instant coalesce into a single wire frame.
  EXPECT_EQ(client_channel->batch_frames_sent(), 1u);
  EXPECT_EQ(server_channel->batch_frames_received(), 1u);
  EXPECT_EQ(client_channel->messages_sent(), 10u);
  EXPECT_EQ(server_channel->messages_received(), 10u);
}

TEST_F(ChannelFixture, FragmentedMessageReassemblesExactly) {
  establish(client_config(), server_config());
  // 700 KiB exceeds the 256 KiB fragment limit: three records, one frame
  // batch plus reassembly on the far side.
  util::Bytes big = util::Rng(11).bytes(700 * 1024);
  util::Bytes received;
  server_channel->set_receiver([&](util::Bytes&& m) { received = m; });
  client_channel->send(big);
  engine.run();
  EXPECT_EQ(received, big);
  EXPECT_GE(client_channel->batch_frames_sent(), 1u);
  EXPECT_EQ(client_channel->messages_sent(), 3u);  // one seq per record
}

TEST_F(ChannelFixture, MultiMegabyteFlushSpansMultipleFrames) {
  establish(client_config(), server_config());
  util::Bytes big = util::Rng(12).bytes(5 * 1024 * 1024 / 2);  // 2.5 MiB
  util::Bytes received;
  server_channel->set_receiver([&](util::Bytes&& m) { received = m; });
  client_channel->send(big);
  engine.run();
  EXPECT_EQ(received, big);
  // The flush respects the ~1 MiB frame payload cap, so 2.5 MiB of
  // fragments needs several frames — and they all reassemble in order.
  EXPECT_GE(client_channel->batch_frames_sent(), 2u);
  EXPECT_EQ(server_channel->batch_frames_received(),
            client_channel->batch_frames_sent());
}

TEST_F(ChannelFixture, MixedSmallAndFragmentedMessagesKeepOrder) {
  establish(client_config(), server_config());
  util::Bytes big = util::Rng(13).bytes(300 * 1024);
  std::vector<std::size_t> sizes;
  util::Bytes big_received;
  server_channel->set_receiver([&](util::Bytes&& m) {
    sizes.push_back(m.size());
    if (m.size() > 1000) big_received = std::move(m);
  });
  client_channel->send(util::to_bytes("before"));
  client_channel->send(big);
  client_channel->send(util::to_bytes("after"));
  engine.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 6u);
  EXPECT_EQ(sizes[1], big.size());
  EXPECT_EQ(sizes[2], 5u);
  EXPECT_EQ(big_received, big);
}

TEST_F(ChannelFixture, SendThenCloseDeliversQueuedRecordsFirst) {
  establish(client_config(), server_config());
  std::vector<std::string> events;
  server_channel->set_receiver(
      [&](util::Bytes&& m) { events.push_back(util::to_string(m)); });
  server_channel->set_close_handler([&] { events.push_back("<close>"); });
  // send() queues for the end-of-instant flush; close() in the same
  // instant must flush that queue before tearing the connection down.
  client_channel->send(util::to_bytes("last words"));
  client_channel->close();
  engine.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "last words");
  EXPECT_EQ(events[1], "<close>");
}

TEST_F(ChannelFixture, TamperedBatchRecordTearsDownChannel) {
  // Man-in-the-middle relay between client and server that flips one
  // tag byte in every kRecordBatch frame it forwards.
  std::shared_ptr<Endpoint> relay_to_server;
  std::shared_ptr<Endpoint> relay_from_client;
  (void)network.listen({"server", 443},
                       [&](std::shared_ptr<Endpoint> endpoint) {
                         server_channel = SecureChannel::as_server(
                             engine, rng, std::move(endpoint),
                             server_config(),
                             [&](util::Status s) { server_status = s; });
                       });
  (void)network.listen({"relay", 443}, [&](std::shared_ptr<Endpoint> e) {
    relay_from_client = std::move(e);
    auto upstream = network.connect("relay", {"server", 443});
    ASSERT_TRUE(upstream.ok());
    relay_to_server = std::move(upstream.value());
    relay_from_client->set_receiver([&](util::Bytes&& wire) {
      if (!wire.empty() && wire[0] == 10)  // kRecordBatch
        wire.back() ^= 0x01;               // last tag byte
      relay_to_server->send(std::move(wire));
    });
    relay_to_server->set_receiver(
        [&](util::Bytes&& wire) { relay_from_client->send(std::move(wire)); });
  });
  auto endpoint = network.connect("client", {"relay", 443});
  ASSERT_TRUE(endpoint.ok());
  client_channel = SecureChannel::as_client(
      engine, rng, std::move(endpoint.value()), client_config(),
      [&](util::Status s) { client_status = s; });
  engine.run();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();

  bool delivered = false;
  server_channel->set_receiver([&](util::Bytes&&) { delivered = true; });
  client_channel->send(util::to_bytes("secret"));
  engine.run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(server_channel->failed());
}

TEST_F(ChannelFixture, RecordPoolProducesIdenticalPlaintext) {
  util::ThreadPool pool(3);
  SecureChannel::Config pc = client_config();
  SecureChannel::Config ps = server_config();
  pc.record_pool = &pool;
  ps.record_pool = &pool;
  establish(pc, ps);
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();

  util::Bytes big = util::Rng(14).bytes(900 * 1024);
  std::vector<std::string> small_received;
  util::Bytes big_received;
  server_channel->set_receiver([&](util::Bytes&& m) {
    if (m.size() > 1000)
      big_received = std::move(m);
    else
      small_received.push_back(util::to_string(m));
  });
  for (int i = 0; i < 20; ++i)
    client_channel->send(util::to_bytes("s" + std::to_string(i)));
  client_channel->send(big);
  engine.run();
  ASSERT_EQ(small_received.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(small_received[static_cast<std::size_t>(i)],
              "s" + std::to_string(i));
  EXPECT_EQ(big_received, big);
}

// --- session resumption -----------------------------------------------

struct ResumptionFixture : public ChannelFixture {
  SessionTicketManager tickets{rng};
  SessionCache cache;

  void SetUp() override {
    ChannelFixture::SetUp();
    tickets.attach_trust(&trust);
    SecureChannel::Config config = server_config();
    config.ticket_manager = &tickets;
    listen(443, config);
  }

  void listen(std::uint16_t port, SecureChannel::Config config) {
    (void)network.listen(
        {"server", port},
        [this, config](std::shared_ptr<Endpoint> endpoint) {
          server_channel = SecureChannel::as_server(
              engine, rng, std::move(endpoint), config,
              [this](util::Status s) { server_status = s; });
        });
  }

  void connect(std::uint16_t port = 443) {
    SecureChannel::Config config = client_config();
    config.session_cache = &cache;
    auto endpoint = network.connect("client", {"server", port});
    ASSERT_TRUE(endpoint.ok());
    client_channel = SecureChannel::as_client(
        engine, rng, std::move(endpoint.value()), config,
        [this](util::Status s) { client_status = s; });
    engine.run();
  }

  std::int64_t now() const { return epoch_seconds(engine.now()); }
};

TEST_F(ResumptionFixture, FullHandshakeMintsTicket) {
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
  EXPECT_FALSE(server_channel->resumed());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(tickets.issued(), 1u);
}

TEST_F(ResumptionFixture, ResumedHandshakeSkipsPublicKeyCrypto) {
  crypto::reset_powmod_ops();
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  const std::uint64_t full_ops = crypto::powmod_ops();
  ASSERT_GT(full_ops, 0u);

  crypto::reset_powmod_ops();
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  const std::uint64_t resumed_ops = crypto::powmod_ops();

  EXPECT_TRUE(client_channel->resumed());
  EXPECT_TRUE(server_channel->resumed());
  // The acceptance bar is <= 1/5 of the full handshake's public-key
  // operations; the resumed path actually performs none at all.
  EXPECT_LE(resumed_ops * 5, full_ops);
  EXPECT_EQ(resumed_ops, 0u);

  // The resumed channel still knows who the peer is...
  EXPECT_EQ(client_channel->peer_certificate().subject, dn("server"));
  EXPECT_EQ(server_channel->peer_certificate().subject, dn("client"));
  // ...records the protocol baseline...
  EXPECT_EQ(client_channel->negotiated_version(), kProtocolVersion);
  EXPECT_EQ(server_channel->negotiated_version(), kProtocolVersion);
  // ...and carries data both ways.
  std::string at_server, at_client;
  server_channel->set_receiver([&](util::Bytes&& m) {
    at_server = util::to_string(m);
    server_channel->send(util::to_bytes("pong"));
  });
  client_channel->set_receiver(
      [&](util::Bytes&& m) { at_client = util::to_string(m); });
  client_channel->send(util::to_bytes("ping"));
  engine.run();
  EXPECT_EQ(at_server, "ping");
  EXPECT_EQ(at_client, "pong");
}

TEST_F(ResumptionFixture, TicketRotatesOnEveryResumption) {
  connect();
  connect();
  ASSERT_TRUE(client_channel->resumed());
  EXPECT_EQ(tickets.issued(), 2u);  // full mint + rotation
  EXPECT_EQ(tickets.redeemed(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // rotated ticket replaced the old one
  connect();  // the rotated ticket resumes again
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_TRUE(client_channel->resumed());
  EXPECT_EQ(tickets.redeemed(), 2u);
}

TEST_F(ResumptionFixture, InvalidateAllFallsBackToFullHandshake) {
  connect();
  tickets.invalidate_all();
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
  EXPECT_EQ(tickets.refused(), 1u);
  // The fallback full handshake minted a fresh ticket under the new
  // epoch, so the connection after it resumes again.
  connect();
  EXPECT_TRUE(client_channel->resumed());
}

TEST_F(ResumptionFixture, TrustChangeRefusesTicketThenRevalidates) {
  connect();
  ASSERT_EQ(cache.size(), 1u);
  // A CRL that revokes nothing still bumps the trust generation: every
  // outstanding ticket dies, but the full handshake succeeds.
  ASSERT_TRUE(trust.add_crl(ca.crl(now())).ok());
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
  EXPECT_GE(tickets.refused(), 1u);
}

TEST_F(ResumptionFixture, RevokedClientCannotResumeOrHandshake) {
  connect();
  ASSERT_TRUE(client_status.ok());
  // Revoke the client's certificate. The CRL bump kills the ticket, so
  // the resumption attempt is refused — and the fallback full handshake
  // then fails against the CRL. A revoked client gets no channel at all.
  ca.revoke(client_cred.certificate.serial);
  ASSERT_TRUE(trust.add_crl(ca.crl(now())).ok());
  connect();
  EXPECT_FALSE(client_status.ok());
  EXPECT_FALSE(server_status.ok());
  EXPECT_GE(tickets.refused(), 1u);
  EXPECT_FALSE(client_channel->established());
}

TEST_F(ResumptionFixture, ExpiredTicketRefusedByServer) {
  connect();
  // Stretch the client's local lifetime hint so it still *attempts* the
  // resumption; the authoritative TTL check is the server's.
  SessionCache::Entry entry = *cache.get("server", now());
  entry.expires_at = now() + 1'000'000;
  cache.put("server", std::move(entry));
  tickets.set_ttl(0);  // every ticket is now expired at redemption
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
  EXPECT_GE(tickets.refused(), 1u);
}

TEST_F(ResumptionFixture, ServerWithoutTicketManagerSendsHelloRetry) {
  connect();  // warm the cache against the ticketed listener
  ASSERT_EQ(cache.size(), 1u);
  listen(444, server_config());  // same host, no ticket manager
  connect(444);
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
  EXPECT_TRUE(client_channel->established());
}

TEST_F(ResumptionFixture, PreResumptionServerAlertDropsCachedSession) {
  connect();  // warm the cache
  ASSERT_EQ(cache.size(), 1u);
  // A server that answers ClientHelloResumed with an alert instead of
  // HelloRetry. Emulate it with a raw listener speaking exactly that.
  std::shared_ptr<Endpoint> legacy;  // owns the raw endpoint for the test
  (void)network.listen(
      {"server", 445}, [&legacy](std::shared_ptr<Endpoint> endpoint) {
        legacy = std::move(endpoint);
        legacy->set_receiver(
            [weak = std::weak_ptr<Endpoint>(legacy)](util::Bytes&&) {
              auto raw = weak.lock();
              if (!raw) return;
              util::ByteWriter alert;
              alert.u8(5);  // kAlert
              alert.str("unknown message type");
              raw->send(alert.take());
            });
      });
  connect(445);
  EXPECT_FALSE(client_status.ok());
  // The failed attempt dropped the cached session, so the owner's retry
  // (our reconnect to the real server) performs a clean full handshake.
  EXPECT_EQ(cache.size(), 0u);
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
}

TEST_F(ResumptionFixture, BinderTamperFailsHard) {
  connect();
  // An attacker replaying a captured ticket does not hold the master
  // secret, so the binder cannot verify. Emulate by corrupting the
  // cached secret: the ticket itself stays valid.
  SessionCache::Entry entry = *cache.get("server", now());
  entry.master_secret[0] ^= 0x01;
  cache.put("server", std::move(entry));
  connect();
  // Hard failure, no HelloRetry fallback: a valid ticket with a bad
  // binder is an active attack, not a stale cache.
  EXPECT_FALSE(client_status.ok());
  EXPECT_FALSE(server_status.ok());
  EXPECT_EQ(tickets.redeemed(), 1u);  // redeem passed; the binder failed
}

TEST_F(ResumptionFixture, CorruptTicketFallsBackToFullHandshake) {
  connect();
  SessionCache::Entry entry = *cache.get("server", now());
  entry.ticket[entry.ticket.size() / 2] ^= 0x40;
  cache.put("server", std::move(entry));
  connect();
  ASSERT_TRUE(client_status.ok()) << client_status.to_string();
  EXPECT_FALSE(client_channel->resumed());
  EXPECT_GE(tickets.refused(), 1u);
}

}  // namespace
}  // namespace unicore::net
