// Robustness: the decoders must reject arbitrary and mutated inputs
// gracefully (error Results, never crashes or hangs) — everything they
// see arrives from the network. That includes the secure channel's own
// handshake and record decoders, fed through a raw Endpoint.
#include <gtest/gtest.h>

#include "ajo/codec.h"
#include "ajo/generator.h"
#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/tasks.h"
#include "asn1/der.h"
#include "batch/target_system.h"
#include "crypto/x509.h"
#include "net/network.h"
#include "net/secure_channel.h"
#include "njs/njs.h"
#include "resources/resource_page.h"
#include "uspace/blob.h"
#include "util/rng.h"
#include "xfer/manifest.h"
#include "xfer/service.h"

namespace unicore {
namespace {

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashDecoders) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    util::Bytes junk = rng.bytes(1 + rng.below(300));
    (void)ajo::decode_action(junk);
    (void)ajo::SignedAjo::decode(junk);
    (void)asn1::decode(junk);
    (void)crypto::Certificate::from_der(junk);
    (void)resources::ResourcePage::decode(junk);
    try {
      util::ByteReader r(junk);
      (void)ajo::Outcome::decode(r);
    } catch (const std::out_of_range&) {
    }
    try {
      util::ByteReader r(junk);
      (void)uspace::FileBlob::decode(r);
    } catch (const std::out_of_range&) {
    }
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, MutatedValidWireHandledGracefully) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  crypto::DistinguishedName user;
  user.common_name = "Fuzz";
  ajo::RandomJobOptions options;
  options.tasks_per_group = 4;
  ajo::AbstractJobObject job = ajo::random_job(rng, options, user);
  util::Bytes wire = ajo::encode_action(job);

  for (int i = 0; i < 300; ++i) {
    util::Bytes mutated = wire;
    // 1-3 random byte flips.
    int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f)
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    auto decoded = ajo::decode_action(mutated);
    if (decoded.ok()) {
      // If it still parses, the object must be usable: encoding it back
      // and walking it must not blow up.
      (void)ajo::encode_action(*decoded.value());
      if (decoded.value()->is_job()) {
        auto& back = static_cast<ajo::AbstractJobObject&>(*decoded.value());
        (void)back.validate();
        (void)back.total_actions();
      }
    }
  }
  SUCCEED();
}

TEST_P(DecoderFuzz, TruncatedValidWireAlwaysRejected) {
  util::Rng rng(GetParam() ^ 0x5555);
  crypto::DistinguishedName user;
  user.common_name = "Fuzz";
  ajo::RandomJobOptions options;
  ajo::AbstractJobObject job = ajo::random_job(rng, options, user);
  util::Bytes wire = ajo::encode_action(job);
  for (int i = 0; i < 100; ++i) {
    std::size_t cut = rng.below(wire.size());
    util::Bytes prefix(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ajo::decode_action(prefix).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

// ---- the chunked transfer protocol -----------------------------------------
//
// Request bodies of kinds 16/24/25 enter the way the NJS dispatcher
// enters them: the role byte comes off the front and the handler runs
// inside the dispatcher's catch of std::out_of_range — any other
// exception, or a sanitizer report, fails the run. Reply bodies are
// decoded the way the transfer engine decodes them, and journal records
// 10–12 go through recover_bundles and the service's handoff fold.

constexpr std::int64_t kEpoch = 935'536'000;

crypto::DistinguishedName fuzz_dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.common_name = cn;
  return out;
}

/// One NJS with a transfer receiver and a finished job whose Uspace the
/// fuzzed requests target (so valid encodings reach deep code paths).
struct XferFuzzSite {
  sim::Engine engine;
  util::Rng rng{31};
  crypto::CertificateAuthority ca{fuzz_dn("CA"), rng, kEpoch,
                                  10LL * 365 * 86'400};
  crypto::Credential server_cred = ca.issue_credential(
      fuzz_dn("njs"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential user_cred = ca.issue_credential(
      fuzz_dn("Jane"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  njs::Njs njs{engine, util::Rng(32), "LRZ", server_cred};
  xfer::Service service{engine, njs};
  ajo::JobToken token = 0;

  XferFuzzSite() {
    njs.set_journal(std::make_shared<njs::Journal>(
        std::make_shared<njs::MemoryJournalStore>()));
    njs.add_crash_participant(&service);
    njs::Njs::VsiteConfig config;
    config.system = batch::make_cray_t3e("T3E", 8);
    njs.add_vsite(std::move(config));
    ajo::AbstractJobObject job;
    job.set_name("target");
    job.vsite = "T3E";
    job.user = fuzz_dn("Jane");
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("t");
    task->script = "true\n";
    task->set_resource_request({1, 600, 64, 0, 8});
    task->behavior.nominal_seconds = 1;
    job.add(std::move(task));
    gateway::AuthenticatedUser user{fuzz_dn("Jane"), "ucjane", {"g"}};
    token = njs.consign(job, user, user_cred.certificate).value();
    engine.run();
    (void)njs.deliver_file(token, "small.out",
                           uspace::FileBlob::from_string("tiny"));
    (void)njs.deliver_file(token, "big.out",
                           uspace::FileBlob::synthetic(1 << 20, 7));
  }

  /// Runs one request body through a handler behind the dispatcher's
  /// catch; the reply body (if any) goes through the reply decoder.
  void dispatch(xfer::Op op, const util::Bytes& body, bool server_peer) {
    try {
      util::ByteReader r{body};
      auto role = static_cast<xfer::Role>(r.u8());
      const crypto::DistinguishedName principal =
          server_peer ? fuzz_dn("peer-njs") : fuzz_dn("Jane");
      util::Result<util::Bytes> reply = util::Bytes{};
      switch (op) {
        case xfer::Op::kBundleOpen:
          reply = service.bundle_open(principal, server_peer, role, r);
          break;
        case xfer::Op::kChunk:
          reply = service.chunk(principal, server_peer, role, r);
          break;
        case xfer::Op::kBundleClose:
          reply = service.bundle_close(principal, server_peer, role, r);
          break;
      }
      if (reply.ok()) decode_replies(reply.value());
    } catch (const std::out_of_range&) {
      // The dispatcher answers "malformed NJS request".
    }
  }

  /// Every reply decoder must reject any byte string gracefully.
  static void decode_replies(const util::Bytes& body) {
    auto attempt = [&body](auto decode) {
      try {
        util::ByteReader r{body};
        (void)decode(r);
      } catch (const std::out_of_range&) {
      }
    };
    attempt([](util::ByteReader& r) { return xfer::BundleOpenReply::decode(r); });
    attempt([](util::ByteReader& r) {
      return xfer::BundlePullOpenReply::decode(r);
    });
    attempt([](util::ByteReader& r) { return xfer::PushChunkReply::decode(r); });
    attempt([](util::ByteReader& r) { return xfer::Chunk::decode(r); });
  }

  /// Valid request bodies of every kind and role, against live state.
  std::vector<std::pair<xfer::Op, util::Bytes>> valid_requests() {
    std::vector<std::pair<xfer::Op, util::Bytes>> out;
    xfer::BundleOpenRequest open;
    open.role = xfer::Role::kPush;
    open.token = token;
    open.proposed_chunk_bytes = xfer::kMinChunkBytes;
    for (int i = 0; i < 2; ++i) {
      uspace::FileBlob blob = uspace::FileBlob::synthetic(96 << 10, 40 + i);
      xfer::BundleFileEntry entry;
      entry.name = "in" + std::to_string(i);
      entry.size = blob.size();
      entry.checksum = blob.checksum();
      entry.synthetic = true;
      entry.digests = blob.chunk_digests(xfer::kMinChunkBytes);
      open.files.push_back(entry);
    }
    open.key = xfer::make_bundle_key("FZ-Juelich", token, open.files);
    out.emplace_back(xfer::Op::kBundleOpen, open.encode());

    xfer::BundleChunkRequest chunk;
    chunk.role = xfer::Role::kPush;
    chunk.transfer_id = 1;  // the first bundle this service opens
    chunk.file_index = 1;
    chunk.chunk = xfer::make_chunk(uspace::FileBlob::synthetic(96 << 10, 41),
                                   1, xfer::kMinChunkBytes);
    out.emplace_back(xfer::Op::kChunk, chunk.encode());

    xfer::BundleCloseRequest close;
    close.role = xfer::Role::kPush;
    close.transfer_id = 1;
    close.key = open.key;
    out.emplace_back(xfer::Op::kBundleClose, close.encode());

    xfer::BundlePullOpenRequest pull;
    pull.role = xfer::Role::kPeerPull;
    pull.token = token;
    pull.proposed_chunk_bytes = xfer::kMinChunkBytes;
    pull.names = {"big.out", "small.out"};
    out.emplace_back(xfer::Op::kBundleOpen, pull.encode());
    pull.names = {"small.out"};  // inlined in the reply
    out.emplace_back(xfer::Op::kBundleOpen, pull.encode());

    xfer::BundlePullChunkRequest pull_chunk;
    pull_chunk.role = xfer::Role::kPeerPull;
    pull_chunk.transfer_id = 2;
    pull_chunk.index = 3;
    out.emplace_back(xfer::Op::kChunk, pull_chunk.encode());

    close.role = xfer::Role::kPeerPull;
    close.transfer_id = 2;
    out.emplace_back(xfer::Op::kBundleClose, close.encode());
    return out;
  }
};

class XferDecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XferDecoderFuzz, RandomBodiesNeverCrashHandlers) {
  XferFuzzSite site;
  util::Rng rng(GetParam() ^ 0x1f1f);
  const xfer::Op ops[] = {xfer::Op::kBundleOpen, xfer::Op::kChunk,
                          xfer::Op::kBundleClose};
  for (int i = 0; i < 200; ++i) {
    util::Bytes junk = rng.bytes(1 + rng.below(200));
    junk[0] = static_cast<std::uint8_t>(1 + rng.below(4));  // a real role
    site.dispatch(ops[rng.below(3)], junk, rng.below(2) == 0);
    XferFuzzSite::decode_replies(junk);
  }
  SUCCEED();
}

TEST_P(XferDecoderFuzz, MutatedValidBodiesHandledGracefully) {
  XferFuzzSite site;
  util::Rng rng(GetParam() ^ 0x2e2e);
  for (int i = 0; i < 40; ++i) {
    for (auto& [op, wire] : site.valid_requests()) {
      util::Bytes mutated = wire;
      int flips = 1 + static_cast<int>(rng.below(3));
      for (int f = 0; f < flips; ++f)
        mutated[1 + rng.below(mutated.size() - 1)] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      if (rng.below(4) == 0)  // and sometimes a truncation
        mutated.resize(1 + rng.below(mutated.size()));
      site.dispatch(op, mutated, xfer::role_is_server_peer(
                                     static_cast<xfer::Role>(mutated[0])));
      // The unmutated body keeps the tables populated for the next
      // round's mutations to hit.
      site.dispatch(op, wire, xfer::role_is_server_peer(
                                  static_cast<xfer::Role>(wire[0])));
    }
    if (i % 10 == 9) {  // drop the tables, as a crash does
      site.njs.crash();
      ASSERT_TRUE(site.njs.recover().ok());
    }
  }
  SUCCEED();
}

TEST_P(XferDecoderFuzz, MutatedJournalRecordsNeverCrashRecovery) {
  XferFuzzSite site;
  util::Rng rng(GetParam() ^ 0x3d3d);
  xfer::BundleManifest manifest;
  uspace::FileBlob blob = uspace::FileBlob::from_string(std::string(300, 'j'));
  manifest.files.push_back({"a.dat", blob.size(), blob.checksum(), false});
  manifest.key = util::Bytes(32, 0x11);
  manifest.token = site.token;
  manifest.chunk_bytes = xfer::kMinChunkBytes;
  manifest.principal = fuzz_dn("peer-njs");

  // Valid records 10–12, as the receiver writes them.
  auto scratch = std::make_shared<njs::MemoryJournalStore>();
  njs::Journal valid{scratch};
  xfer::journal_bundle_manifest(valid, manifest);
  xfer::journal_bundle_chunk(valid, manifest, 0,
                             xfer::make_chunk(blob, 0, xfer::kMinChunkBytes));
  xfer::journal_bundle_done(valid, manifest);
  std::vector<njs::JournalRecord> records;
  valid.replay([&](const njs::JournalRecord& record) {
    records.push_back(record);
  });
  ASSERT_EQ(records.size(), 3u);

  for (int round = 0; round < 20; ++round) {
    njs::Journal journal{std::make_shared<njs::MemoryJournalStore>()};
    for (int i = 0; i < 30; ++i) {
      njs::JournalRecord record = records[rng.below(records.size())];
      if (rng.below(3) == 0) {
        record.payload = rng.bytes(rng.below(120));
      } else if (!record.payload.empty()) {
        int flips = 1 + static_cast<int>(rng.below(3));
        for (int f = 0; f < flips; ++f)
          record.payload[rng.below(record.payload.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
        if (rng.below(4) == 0)
          record.payload.resize(rng.below(record.payload.size()));
      }
      journal.append(std::move(record));
    }
    (void)xfer::recover_bundles(journal);
    (void)xfer::completed_bundle_keys(journal);
    site.service.on_njs_adopt(journal);  // the handoff fold
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, XferDecoderFuzz,
                         ::testing::Range<std::uint64_t>(0, 4));

// ---- the secure channel's wire decoders ------------------------------------
//
// A raw Endpoint feeds random bytes and mutations of valid encodings to a
// SecureChannel in each state that parses peer bytes: a server awaiting
// ClientHello, a client awaiting ServerHello or the resumed reply, and an
// established channel reading kRecordBatch frames. Whatever arrives, the
// channel must end failed with an error — never throw out of the engine,
// never crash (the sanitize preset runs these too).

/// One random corruption of `wire`: 1-3 byte flips, a truncation, or
/// appended junk.
util::Bytes mutate(util::Rng& rng, util::Bytes wire) {
  switch (rng.below(3)) {
    case 0: {
      int flips = 1 + static_cast<int>(rng.below(3));
      for (int f = 0; f < flips; ++f)
        wire[rng.below(wire.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    }
    case 1:
      wire.resize(rng.below(wire.size()));
      break;
    default:
      util::append(wire, rng.bytes(1 + rng.below(16)));
  }
  return wire;
}

/// Identities shared by every round; each round builds a fresh engine and
/// network, so one dead channel never leaks into the next input.
struct ChannelFuzzIdentities {
  util::Rng rng{41};
  crypto::CertificateAuthority ca{fuzz_dn("CA"), rng, kEpoch,
                                  10LL * 365 * 86'400};
  crypto::TrustStore trust;
  crypto::Credential server = ca.issue_credential(
      fuzz_dn("server"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential client = ca.issue_credential(
      fuzz_dn("client"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);

  ChannelFuzzIdentities() { trust.add_root(ca.certificate()); }

  net::SecureChannel::Config server_config() const {
    net::SecureChannel::Config config;
    config.credential = server;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageClientAuth;
    return config;
  }
  net::SecureChannel::Config client_config() const {
    net::SecureChannel::Config config;
    config.credential = client;
    config.trust = &trust;
    config.required_peer_usage = crypto::kUsageServerAuth;
    return config;
  }
};

/// One round: an engine, a network, the channel under test and its
/// handshake result.
struct ChannelFuzzRound {
  explicit ChannelFuzzRound(const ChannelFuzzIdentities& ids) : ids(ids) {}

  /// Runs the engine to quiescence; the handshake timeout guarantees a
  /// channel still waiting on the raw peer settles too.
  void run() { EXPECT_NO_THROW(engine.run()); }

  void expect_failed() const {
    ASSERT_TRUE(channel != nullptr);
    EXPECT_TRUE(channel->failed());
    EXPECT_FALSE(channel->established());
  }

  const ChannelFuzzIdentities& ids;
  sim::Engine engine;
  util::Rng rng{7};
  net::Network network{engine, util::Rng(8)};
  std::shared_ptr<net::Endpoint> raw;
  std::shared_ptr<net::SecureChannel> channel;
  util::Status status{util::make_error(util::ErrorCode::kInternal, "unset")};
};

/// A ClientHello with the v3 tail.
util::Bytes valid_client_hello(util::Rng& rng) {
  util::ByteWriter w;
  w.u8(1);
  w.blob(rng.bytes(32));
  w.u64(rng.below(1ull << 40));
  w.u8(net::kProtocolVersion);
  w.u64(0);
  return w.take();
}

/// A ClientHelloResumed: random, ticket, v3 tail, binder.
util::Bytes valid_resumed_hello(util::Rng& rng) {
  util::ByteWriter w;
  w.u8(7);
  w.blob(rng.bytes(32));
  w.blob(rng.bytes(64));
  w.u8(net::kProtocolVersion);
  w.u64(0);
  w.raw(rng.bytes(32));
  return w.take();
}

/// A ServerHello shaped like a real one: the server's chain, the v3
/// version echo, a signature (which cannot verify).
util::Bytes valid_server_hello(util::Rng& rng,
                               const crypto::Certificate& server) {
  util::ByteWriter w;
  w.u8(2);
  w.blob(rng.bytes(32));
  w.u64(rng.below(1ull << 40));
  w.varint(1);
  w.blob(server.der());
  w.u8(net::kProtocolVersion);
  w.u64(rng.below(1ull << 40));
  return w.take();
}

/// A ServerHelloResumed: random, rotated ticket, lifetime, key
/// confirmation.
util::Bytes valid_resumed_reply(util::Rng& rng) {
  util::ByteWriter w;
  w.u8(8);
  w.blob(rng.bytes(32));
  w.blob(rng.bytes(64));
  w.u64(3600);
  w.raw(rng.bytes(32));
  return w.take();
}

class ChannelDecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static const ChannelFuzzIdentities& ids() {
    static const ChannelFuzzIdentities identities;
    return identities;
  }

  /// Random bytes half the time (under a random type byte), a mutation
  /// of `valid` the other half.
  static util::Bytes input(util::Rng& rng, util::Bytes valid) {
    if (rng.below(2) == 0) return mutate(rng, std::move(valid));
    util::Bytes junk = rng.bytes(rng.below(160));
    if (!junk.empty()) junk[0] = static_cast<std::uint8_t>(rng.below(12));
    return junk;
  }
};

TEST_P(ChannelDecoderFuzz, ServerAwaitingClientHelloFailsOnAnyInput) {
  util::Rng rng(GetParam() ^ 0x4c4c);
  for (int i = 0; i < 60; ++i) {
    ChannelFuzzRound round(ids());
    (void)round.network.listen(
        {"server", 443}, [&round](std::shared_ptr<net::Endpoint> endpoint) {
          round.channel = net::SecureChannel::as_server(
              round.engine, round.rng, std::move(endpoint),
              round.ids.server_config(),
              [&round](util::Status s) { round.status = s; });
        });
    auto endpoint = round.network.connect("client", {"server", 443});
    ASSERT_TRUE(endpoint.ok());
    round.raw = endpoint.value();
    round.raw->send(input(rng, rng.below(2) == 0 ? valid_client_hello(rng)
                                                 : valid_resumed_hello(rng)));
    round.run();
    round.expect_failed();
    EXPECT_FALSE(round.status.ok());
  }
}

TEST_P(ChannelDecoderFuzz, ClientAwaitingServerReplyFailsOnAnyInput) {
  util::Rng rng(GetParam() ^ 0x5d5d);
  for (int i = 0; i < 60; ++i) {
    ChannelFuzzRound round(ids());
    // Every other round the client holds a ticket, so it sends
    // ClientHelloResumed and parses the resumed reply instead.
    const bool resume = i % 2 == 1;
    net::SessionCache cache;
    net::SecureChannel::Config config = ids().client_config();
    if (resume) {
      net::SessionCache::Entry entry;
      entry.ticket = rng.bytes(64);
      entry.master_secret = rng.bytes(32);
      entry.server_certificate = ids().server.certificate;
      entry.expires_at = kEpoch + 86'400;
      cache.put("server", std::move(entry));
      config.session_cache = &cache;
    }
    util::Bytes valid =
        resume ? valid_resumed_reply(rng)
               : valid_server_hello(rng, ids().server.certificate);
    util::Bytes reply = input(rng, std::move(valid));
    (void)round.network.listen(
        {"server", 443},
        [&round, reply](std::shared_ptr<net::Endpoint> endpoint) {
          round.raw = std::move(endpoint);
          // Answer the first hello only; anything after it (a full hello
          // following a HelloRetry) meets silence and the timeout.
          round.raw->set_receiver(
              [&round, reply, answered = false](util::Bytes&&) mutable {
                if (answered) return;
                answered = true;
                round.raw->send(reply);
              });
        });
    auto endpoint = round.network.connect("client", {"server", 443});
    ASSERT_TRUE(endpoint.ok());
    round.channel = net::SecureChannel::as_client(
        round.engine, round.rng, endpoint.value(), config,
        [&round](util::Status s) { round.status = s; });
    round.run();
    round.expect_failed();
    EXPECT_FALSE(round.status.ok());
  }
}

TEST_P(ChannelDecoderFuzz, EstablishedChannelFailsOnCorruptRecordBatch) {
  util::Rng rng(GetParam() ^ 0x6e6e);
  for (int i = 0; i < 40; ++i) {
    ChannelFuzzRound round(ids());
    // client -> relay -> server. The relay forwards the handshake as is
    // and swaps the first kRecordBatch frame for the fuzz input.
    std::shared_ptr<net::Endpoint> to_server;
    (void)round.network.listen(
        {"server", 443}, [&round](std::shared_ptr<net::Endpoint> endpoint) {
          round.channel = net::SecureChannel::as_server(
              round.engine, round.rng, std::move(endpoint),
              round.ids.server_config(),
              [&round](util::Status s) { round.status = s; });
        });
    (void)round.network.listen(
        {"relay", 443}, [&](std::shared_ptr<net::Endpoint> from_client) {
          round.raw = std::move(from_client);
          to_server = round.network.connect("relay", {"server", 443}).value();
          round.raw->set_receiver([&](util::Bytes&& wire) {
            if (!wire.empty() && wire[0] == 10) {  // kRecordBatch
              util::Bytes fuzzed = input(rng, std::move(wire));
              if (fuzzed.empty() || rng.below(2) == 0) {
                // Random bytes under the kRecordBatch type byte.
                fuzzed = rng.bytes(1 + rng.below(120));
                fuzzed[0] = 10;
              }
              wire = std::move(fuzzed);
            }
            to_server->send(std::move(wire));
          });
          to_server->set_receiver(
              [&](util::Bytes&& wire) { round.raw->send(std::move(wire)); });
        });
    auto endpoint = round.network.connect("client", {"relay", 443});
    ASSERT_TRUE(endpoint.ok());
    util::Status client_status = util::make_error(util::ErrorCode::kInternal,
                                                  "unset");
    auto client = net::SecureChannel::as_client(
        round.engine, round.rng, endpoint.value(), ids().client_config(),
        [&client_status](util::Status s) { client_status = s; });
    round.run();
    ASSERT_TRUE(client_status.ok()) << client_status.to_string();
    ASSERT_TRUE(round.status.ok()) << round.status.to_string();

    bool delivered = false;
    round.channel->set_receiver([&delivered](util::Bytes&&) {
      delivered = true;
    });
    std::vector<util::Bytes> messages{rng.bytes(1 + rng.below(64))};
    if (rng.below(2) == 0) messages.push_back(rng.bytes(300 * 1024));
    for (util::Bytes& message : messages) client->send(std::move(message));
    round.run();
    EXPECT_TRUE(round.channel->failed());
    EXPECT_FALSE(delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelDecoderFuzz,
                         ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace unicore
