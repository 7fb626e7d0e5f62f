// TransferManager against a real xfer::Service over a loopback
// transport: windowed parallel pushes and pulls (a single file is a
// bundle of one), lost-ack idempotent re-delivery, receiver
// crash/recovery resume, the completed-bundle tombstone, and malformed
// replies. No network — faults are injected at the transport seam; the
// service journals through a real NJS journal.
#include "xfer/transfer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "ajo/tasks.h"
#include "batch/target_system.h"
#include "obs/metrics.h"
#include "store/chunk_store.h"
#include "xfer/service.h"

namespace unicore::xfer {
namespace {

constexpr std::int64_t kEpoch = 935'536'000;

crypto::DistinguishedName dn(const std::string& cn) {
  crypto::DistinguishedName out;
  out.country = "DE";
  out.organization = "Org";
  out.common_name = cn;
  return out;
}

/// In-process transport: every call crosses one simulated millisecond,
/// decodes the Role byte like the gateway would, and dispatches into a
/// real Service. Faults are injected per call: `fail_next_calls` fails
/// without reaching the service; `drop_next_acks` lets the service
/// apply the chunk but loses the acknowledgement (the WAL-idempotency
/// scenario).
class Loopback : public ChunkTransport {
 public:
  Loopback(sim::Engine& engine, Service& service, std::size_t streams)
      : engine_(engine), service_(service), streams_(streams) {}

  std::size_t streams() const override { return streams_; }

  void call(std::size_t /*stream*/, Op op, util::Bytes body,
            std::function<void(util::Result<util::Bytes>)> done) override {
    engine_.after(sim::msec(1), [this, op, body = std::move(body),
                                 done = std::move(done)] {
      if (fail_next_calls > 0) {
        --fail_next_calls;
        done(util::make_error(util::ErrorCode::kUnavailable,
                              "injected link failure"));
        return;
      }
      util::ByteReader r{body};
      Role role = static_cast<Role>(r.u8());
      bool server_peer = role_is_server_peer(role);
      const crypto::DistinguishedName& principal =
          server_peer ? peer_dn : client_dn;
      util::Result<util::Bytes> reply = util::Bytes{};
      switch (op) {
        case Op::kChunk:
          reply = service_.chunk(principal, server_peer, role, r);
          break;
        case Op::kBundleOpen:
          reply = service_.bundle_open(principal, server_peer, role, r);
          break;
        case Op::kBundleClose:
          reply = service_.bundle_close(principal, server_peer, role, r);
          break;
      }
      if (op == Op::kChunk && drop_next_acks > 0) {
        --drop_next_acks;
        done(util::make_error(util::ErrorCode::kTimeout,
                              "injected ack loss"));
        return;
      }
      done(std::move(reply));
    });
  }

  crypto::DistinguishedName peer_dn = dn("peer-njs");
  crypto::DistinguishedName client_dn = dn("Jane");
  int fail_next_calls = 0;
  int drop_next_acks = 0;

 private:
  sim::Engine& engine_;
  Service& service_;
  std::size_t streams_;
};

struct TransferFixture : public ::testing::Test {
  sim::Engine engine;
  util::Rng rng{11};
  crypto::CertificateAuthority ca{dn("CA"), rng, kEpoch, 10LL * 365 * 86'400};
  crypto::Credential server_cred = ca.issue_credential(
      dn("njs"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageServerAuth | crypto::kUsageDigitalSignature);
  crypto::Credential user_cred = ca.issue_credential(
      dn("Jane"), rng, kEpoch, 365 * 86'400,
      crypto::kUsageClientAuth | crypto::kUsageDigitalSignature);
  njs::Njs njs{engine, util::Rng(12), "LRZ", server_cred};
  gateway::AuthenticatedUser user{dn("Jane"), "ucjane", {"project-a"}};
  std::shared_ptr<njs::MemoryJournalStore> store =
      std::make_shared<njs::MemoryJournalStore>();
  Service service{engine, njs};
  TransferManager manager{engine, rng};
  ajo::JobToken token = 0;

  void SetUp() override {
    njs.set_journal(std::make_shared<njs::Journal>(store));
    njs.add_crash_participant(&service);
    njs::Njs::VsiteConfig config;
    config.system = batch::make_cray_t3e("T3E", 32);
    njs.add_vsite(std::move(config));

    // One finished job whose Uspace receives pushes and serves pulls.
    ajo::AbstractJobObject job;
    job.set_name("receiver");
    job.vsite = "T3E";
    job.user = dn("Jane");
    auto task = std::make_unique<ajo::ExecuteScriptTask>();
    task->set_name("hello");
    task->script = "echo hello\n";
    task->set_resource_request({1, 600, 64, 0, 8});
    task->behavior.nominal_seconds = 1;
    job.add(std::move(task));
    auto consigned = njs.consign(job, user, user_cred.certificate);
    ASSERT_TRUE(consigned.ok()) << consigned.error().to_string();
    token = consigned.value();
    engine.run();
  }

  TransferOptions small_chunks() {
    TransferOptions options;
    options.chunk_bytes = kMinChunkBytes;
    options.window_per_stream = 4;
    return options;
  }

  /// Pushes one file as a bundle of one.
  util::Result<BundleStats> push_blob(
      std::shared_ptr<ChunkTransport> transport, const uspace::FileBlob& blob,
      const std::string& name, const TransferOptions& options) {
    return push_bundle_files(
        std::move(transport),
        {{name, std::make_shared<const uspace::FileBlob>(blob)}}, options);
  }

  /// Pulls one file as a bundle of one.
  util::Result<BundlePullResult> pull_blob(
      std::shared_ptr<ChunkTransport> transport, Role role,
      const std::string& name, const TransferOptions& options) {
    util::Result<BundlePullResult> out =
        util::make_error(util::ErrorCode::kInternal, "never finished");
    BundlePullSpec spec;
    spec.role = role;
    spec.token = token;
    spec.names = {name};
    int calls = 0;
    manager.pull_bundle(std::move(transport), spec, options,
                        [&](util::Result<BundlePullResult> result) {
                          ++calls;
                          out = std::move(result);
                        });
    engine.run();
    EXPECT_EQ(calls, 1);  // the callback fires exactly once
    return out;
  }

  crypto::Digest delivered_checksum(const std::string& name) {
    auto blob = njs.fetch_file_shared(token, name);
    EXPECT_TRUE(blob.ok()) << blob.error().to_string();
    return blob.ok() ? blob.value()->checksum() : crypto::Digest{};
  }

  /// `count` synthetic files, "<stem>NNN", each `bytes` long.
  static std::vector<BundleFile> make_files(std::size_t count,
                                            std::uint64_t bytes,
                                            const std::string& stem = "f") {
    std::vector<BundleFile> files;
    for (std::size_t i = 0; i < count; ++i)
      files.push_back({stem + std::to_string(i),
                       std::make_shared<const uspace::FileBlob>(
                           uspace::FileBlob::synthetic(bytes, 100 + i))});
    return files;
  }

  util::Result<BundleStats> push_bundle_files(
      std::shared_ptr<ChunkTransport> transport, std::vector<BundleFile> files,
      const TransferOptions& options) {
    util::Result<BundleStats> out =
        util::make_error(util::ErrorCode::kInternal, "never finished");
    int calls = 0;
    manager.push_bundle(transport, BundlePushSpec{"FZ-Juelich", token},
                        std::move(files), options,
                        [&](util::Result<BundleStats> result) {
                          ++calls;
                          out = std::move(result);
                        });
    engine.run();
    EXPECT_EQ(calls, 1);  // the callback fires exactly once
    return out;
  }
};

TEST_F(TransferFixture, PushStripesChunksOverParallelStreams) {
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(2 << 20, 21);
  auto stats = push_blob(transport, blob, "striped.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().bytes, 2ull << 20);
  EXPECT_EQ(stats.value().chunks, 32u);  // 2 MiB / 64 KiB
  EXPECT_EQ(stats.value().streams, 4u);
  EXPECT_EQ(stats.value().retransmits, 0u);
  EXPECT_EQ(stats.value().resumes, 0u);
  EXPECT_EQ(delivered_checksum("striped.bin"), blob.checksum());
  EXPECT_EQ(service.chunks_applied(), 32u);
  EXPECT_EQ(service.bundles_completed(), 1u);
  EXPECT_EQ(service.inbound_open(), 0u);  // table drained on close
}

TEST_F(TransferFixture, PushPreservesRealContent) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::from_string("real bytes\n");
  auto stats = push_blob(transport, blob, "real.txt", small_chunks());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks, 1u);
  auto fetched = njs.fetch_file_shared(token, "real.txt");
  ASSERT_TRUE(fetched.ok());
  ASSERT_NE(fetched.value()->bytes(), nullptr);  // content, not identity
  EXPECT_EQ(*fetched.value()->bytes(), *blob.bytes());
}

TEST_F(TransferFixture, LostAckRedeliversWithoutApplyingTwice) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->drop_next_acks = 3;  // applied, but the sender never hears
  uspace::FileBlob blob = uspace::FileBlob::synthetic(1 << 20, 8);
  auto stats = push_blob(transport, blob, "lossy.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().retransmits, 3u);
  EXPECT_GE(stats.value().duplicates, 3u);  // receiver said applied=false
  EXPECT_EQ(service.duplicates_suppressed(), stats.value().duplicates);
  // Exactly one application per chunk, re-delivery notwithstanding.
  EXPECT_EQ(service.chunks_applied(), 16u);
  EXPECT_EQ(delivered_checksum("lossy.bin"), blob.checksum());
}

TEST_F(TransferFixture, TransientOpenFailureRetriesViaResumeLadder) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->fail_next_calls = 1;  // the open itself dies on the wire
  uspace::FileBlob blob = uspace::FileBlob::synthetic(256 << 10, 3);
  auto stats = push_blob(transport, blob, "retry.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(delivered_checksum("retry.bin"), blob.checksum());
}

TEST_F(TransferFixture, ReceiverCrashMidTransferResumesFromJournal) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(4 << 20, 13);

  // Crash the NJS shortly after the transfer starts moving chunks, then
  // recover it from the journal. The sender's transfer id goes stale;
  // it must re-open by key and send only what the journal is missing.
  engine.after(sim::msec(4), [this] {
    njs.crash();
    ASSERT_TRUE(njs.recover().ok());
  });

  auto stats = push_blob(transport, blob, "crashy.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(service.bundles_recovered(), 1u);
  // Chunks journaled before the crash were folded back, not re-applied:
  // every one of the 64 chunks was applied exactly once overall.
  EXPECT_EQ(service.chunks_applied(), 64u);
  EXPECT_EQ(delivered_checksum("crashy.bin"), blob.checksum());
}

TEST_F(TransferFixture, CompletedTransferTombstoneMakesRepushCheap) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(1 << 20, 30);
  auto first = push_blob(transport, blob, "twice.bin", small_chunks());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().chunks, 16u);

  // Same file, same destination: the durable key matches the
  // kXferBundleDone tombstone, so the re-push moves zero chunks.
  auto second = push_blob(transport, blob, "twice.bin", small_chunks());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);
  EXPECT_EQ(service.chunks_applied(), 16u);
  EXPECT_EQ(delivered_checksum("twice.bin"), blob.checksum());
}

// ---- content-addressed store integration ----------------------------------

struct StoreTransferFixture : public TransferFixture {
  std::shared_ptr<store::ChunkStore> chunk_store =
      std::make_shared<store::ChunkStore>();

  void SetUp() override {
    TransferFixture::SetUp();
    njs.set_chunk_store(chunk_store);
    service.set_chunk_store(chunk_store);
  }

  /// Refs the receiver job's stored files pin right now. With no
  /// transfer in flight, the store must hold exactly this many refs —
  /// anything above is an orphaned refcount.
  std::uint64_t refs_pinned_by_storage() {
    std::uint64_t refs = 0;
    auto files = njs.storage_files(token);
    if (!files.ok()) return 0;
    for (const std::string& name : files.value()) {
      auto blob = njs.fetch_file_shared(token, name);
      if (blob.ok() && blob.value()->is_stored())
        refs += blob.value()->pinned()->manifest().chunks.size();
    }
    return refs;
  }
};

TEST_F(StoreTransferFixture, RepushToNewNameMovesZeroPayloadBytes) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(1 << 20, 30);
  auto first = push_blob(transport, blob, "cold.bin", small_chunks());
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 16u);
  EXPECT_EQ(service.chunks_applied(), 16u);

  // Different target name, so the durable key differs and the committed-
  // bundle tombstone does NOT apply. The sender's digest manifest in
  // the open finds every chunk already present: zero payload moves.
  auto second = push_blob(transport, blob, "warm.bin", small_chunks());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);  // zero payload chunks moved
  EXPECT_EQ(service.chunks_applied(), 16u);  // nothing re-applied
  EXPECT_EQ(service.chunks_deduped(), 16u);
  EXPECT_EQ(delivered_checksum("warm.bin"), blob.checksum());
  EXPECT_EQ(delivered_checksum("cold.bin"), blob.checksum());
  // One physical copy, pinned by both files.
  EXPECT_EQ(chunk_store->stats().chunks, 16u);
  EXPECT_EQ(chunk_store->stats().dedup_hits, 16u);
  EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage());
}

TEST_F(StoreTransferFixture, CrashResumeLeavesNoOrphanedRefcounts) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(4 << 20, 13);

  // The crash destroys the in-flight assembly (its chunk refs must be
  // released), recovery folds the journaled chunks back in (their refs
  // must be re-taken), and the resumed transfer fills the rest.
  engine.after(sim::msec(4), [this] {
    njs.crash();
    ASSERT_TRUE(njs.recover().ok());
  });

  auto stats = push_blob(transport, blob, "crashy.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(service.chunks_applied(), 64u);  // exactly once per chunk
  EXPECT_EQ(delivered_checksum("crashy.bin"), blob.checksum());
  EXPECT_EQ(service.inbound_open(), 0u);
  // Every surviving ref is pinned by a file: nothing leaked across the
  // crash/recover/resume cycle.
  EXPECT_EQ(chunk_store->stats().total_refs, refs_pinned_by_storage());
}

TEST_F(StoreTransferFixture, AbandonedTransferReleasesInFlightRefs) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(1 << 20, 5);
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 1;  // give up on the first outage
  options.max_chunk_retries = 0;
  // Let the open and the first chunks through, then cut the link for
  // good: the sender abandons a half-assembled inbound transfer whose
  // chunks hold store refs.
  engine.after(sim::msec(3), [&transport] {
    transport->fail_next_calls = 1'000'000;
  });
  auto stats = push_blob(transport, blob, "doomed.bin", options);
  ASSERT_FALSE(stats.ok());
  ASSERT_EQ(service.inbound_open(), 1u);

  // The process dies with the half-open table: every in-flight
  // assembly's refs must be released, leaving the store empty (the
  // receiver job's own files predate the store and pin nothing).
  njs.crash();
  EXPECT_EQ(service.inbound_open(), 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
}

TEST_F(StoreTransferFixture, ReapReclaimsPhysicalBytesAndRecordsMetric) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  chunk_store->set_metrics(registry, "LRZ");
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  // Real payload so physical bytes are non-zero. The constant fill
  // makes all four 64 KiB chunks identical: intra-file dedup stores
  // exactly one physical chunk for a 256 KiB file.
  uspace::FileBlob blob =
      uspace::FileBlob::from_bytes(util::Bytes(256 << 10, 0xab));
  auto stats = push_blob(transport, blob, "data.bin", small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(chunk_store->stats().physical_bytes, 64u << 10);
  EXPECT_EQ(chunk_store->stats().logical_bytes, 256u << 10);

  auto freed = njs.reap_storage(token);
  ASSERT_TRUE(freed.ok()) << freed.error().to_string();
  // Reaping released the files' pins: the payload is physically gone.
  EXPECT_EQ(chunk_store->stats().physical_bytes, 0u);
  EXPECT_EQ(chunk_store->stats().total_refs, 0u);
  auto snapshot = registry->snapshot();
  const obs::MetricPoint* reclaimed = snapshot.find(
      "unicore_store_reap_reclaimed_bytes_total", {{"usite", "LRZ"}});
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_EQ(reclaimed->value, double(64 << 10));
}

TEST_F(TransferFixture, BackpressureShrinksCreditButCompletes) {
  Service::Limits limits;
  limits.buffer_limit_bytes = 256 << 10;  // exactly the file size
  limits.max_credit = 2;
  service.set_limits(limits);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  uspace::FileBlob blob = uspace::FileBlob::from_string(
      std::string(256 << 10, 'b'));
  TransferOptions options = small_chunks();
  options.window_per_stream = 8;  // ask for far more than the credit
  auto stats = push_blob(transport, blob, "tight.bin", options);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(delivered_checksum("tight.bin"), blob.checksum());
  EXPECT_EQ(service.inbound_open(), 0u);
}

TEST_F(TransferFixture, PullChunkedMatchesSourceChecksum) {
  uspace::FileBlob blob = uspace::FileBlob::synthetic(3 << 20, 17);
  ASSERT_TRUE(njs.deliver_file(
                      token, "out.bin",
                      std::make_shared<const uspace::FileBlob>(blob))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  auto out = pull_blob(transport, Role::kPeerPull, "out.bin", small_chunks());
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  ASSERT_EQ(out.value().blobs.size(), 1u);
  EXPECT_EQ(out.value().blobs[0].checksum(), blob.checksum());
  EXPECT_EQ(out.value().stats.inlined, 0u);
  EXPECT_EQ(out.value().stats.chunks, 48u);
  EXPECT_EQ(service.outbound_open(), 0u);  // close released the read
}

TEST_F(TransferFixture, PullSmallFileInlinesInOpenReply) {
  ASSERT_TRUE(njs.deliver_file(token, "note.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("n")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto out = pull_blob(transport, Role::kPeerPull, "note.txt", small_chunks());
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value().stats.inlined, 1u);
  EXPECT_EQ(out.value().stats.chunks, 0u);
  ASSERT_EQ(out.value().blobs.size(), 1u);
  EXPECT_EQ(out.value().blobs[0].size(), 1u);
  EXPECT_EQ(service.outbound_open(), 0u);  // nothing left to close
}

TEST_F(TransferFixture, ClientPullEnforcesJobOwnership) {
  ASSERT_TRUE(njs.deliver_file(token, "secret.txt",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("s")))
                  .ok());
  auto transport = std::make_shared<Loopback>(engine, service, 1);
  transport->client_dn = dn("Mallory");  // not the job owner
  TransferOptions options = small_chunks();
  options.max_resume_attempts = 1;  // permission errors must not retry long
  auto out = pull_blob(transport, Role::kClientPull, "secret.txt", options);
  ASSERT_FALSE(out.ok());
}

// ---- bundle transfers ------------------------------------------------------

TEST_F(TransferFixture, BundlePushDeliversEveryFileInOneOpen) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  njs.set_metrics(registry);
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  std::vector<BundleFile> files = make_files(12, 128 << 10);  // 2 chunks each
  std::vector<crypto::Digest> checksums;
  for (const auto& f : files) checksums.push_back(f.blob->checksum());

  auto stats = push_bundle_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, 12u);
  EXPECT_EQ(stats.value().bytes, 12u * (128 << 10));
  EXPECT_EQ(stats.value().chunks, 24u);
  EXPECT_EQ(stats.value().bundles, 1u);
  EXPECT_EQ(stats.value().resumes, 0u);
  EXPECT_EQ(service.chunks_applied(), 24u);
  EXPECT_EQ(service.bundles_completed(), 1u);
  EXPECT_EQ(service.bundle_files_delivered(), 12u);
  EXPECT_EQ(service.inbound_open(), 0u);  // close drained the table
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(delivered_checksum(files[i].name), checksums[i]);

  // The observability satellite: one bundle open, twelve files, and
  // 2n-2 round trips saved against the per-file baseline.
  auto snapshot = registry->snapshot();
  obs::Labels labels{{"usite", "LRZ"}};
  const obs::MetricPoint* opens = snapshot.find(
      "unicore_xfer_opens_total", {{"usite", "LRZ"}, {"kind", "bundle"}});
  ASSERT_NE(opens, nullptr);
  EXPECT_EQ(opens->value, 1.0);
  const obs::MetricPoint* bundle_files =
      snapshot.find("unicore_xfer_bundle_files_total", labels);
  ASSERT_NE(bundle_files, nullptr);
  EXPECT_EQ(bundle_files->value, 12.0);
  const obs::MetricPoint* saved =
      snapshot.find("unicore_xfer_rtts_saved_total", labels);
  ASSERT_NE(saved, nullptr);
  EXPECT_EQ(saved->value, 22.0);  // 2*12 - 2
}

TEST_F(TransferFixture, BundleMixesFileSizesAcrossOneCreditWindow) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files;
  files.push_back({"big.bin", std::make_shared<const uspace::FileBlob>(
                                  uspace::FileBlob::synthetic(1 << 20, 7))});
  files.push_back({"note.txt", std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::from_string("hello"))});
  files.push_back({"mid.bin", std::make_shared<const uspace::FileBlob>(
                                  uspace::FileBlob::synthetic(192 << 10, 9))});
  auto stats = push_bundle_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().files, 3u);
  EXPECT_EQ(stats.value().chunks, 16u + 1u + 3u);
  EXPECT_EQ(service.bundle_files_delivered(), 3u);
  auto note = njs.fetch_file_shared(token, "note.txt");
  ASSERT_TRUE(note.ok());
  ASSERT_NE(note.value()->bytes(), nullptr);
  EXPECT_EQ(*note.value()->bytes(), *uspace::FileBlob::from_string("hello")
                                         .bytes());  // content, not identity
  EXPECT_EQ(delivered_checksum("big.bin"),
            uspace::FileBlob::synthetic(1 << 20, 7).checksum());
}

TEST_F(TransferFixture, BundleLostAckRedeliversWithoutApplyingTwice) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  transport->drop_next_acks = 3;  // applied, but the sender never hears
  auto stats =
      push_bundle_files(transport, make_files(8, 128 << 10), small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().retransmits, 3u);
  EXPECT_GE(stats.value().duplicates, 3u);
  EXPECT_EQ(service.duplicates_suppressed(), stats.value().duplicates);
  EXPECT_EQ(service.chunks_applied(), 16u);  // exactly once per chunk
  EXPECT_EQ(service.bundle_files_delivered(), 8u);
}

TEST_F(TransferFixture, ReceiverCrashMidBundleResumesFromJournal) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files = make_files(8, 512 << 10);  // 64 chunks total
  std::vector<crypto::Digest> checksums;
  for (const auto& f : files) checksums.push_back(f.blob->checksum());

  // Crash the NJS while bundle chunks are interleaving, then recover
  // from the journal: the resume re-opens by bundle key and the reply's
  // per-file have-ranges restore every bitmap.
  engine.after(sim::msec(4), [this] {
    njs.crash();
    ASSERT_TRUE(njs.recover().ok());
  });

  auto stats = push_bundle_files(transport, files, small_chunks());
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_GE(stats.value().resumes, 1u);
  EXPECT_EQ(service.bundles_recovered(), 1u);
  // Chunks journaled before the crash were folded back, not re-applied:
  // each of the 64 chunks across the 8 files was applied exactly once.
  EXPECT_EQ(service.chunks_applied(), 64u);
  // Files finished before the crash are re-delivered from the journal
  // (the workspace write must be redone for durability), so delivery
  // can exceed the file count — but never miss a file.
  EXPECT_GE(service.bundle_files_delivered(), 8u);
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(delivered_checksum(files[i].name), checksums[i]);
}

TEST_F(TransferFixture, CompletedBundleTombstoneMakesRepushCheap) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files = make_files(6, 128 << 10);
  auto first = push_bundle_files(transport, files, small_chunks());
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 12u);

  // Same files, same destination: the durable bundle key matches the
  // kXferBundleDone tombstone, so the re-push moves zero chunks in a
  // single open round trip.
  auto second = push_bundle_files(transport, files, small_chunks());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);
  EXPECT_EQ(service.chunks_applied(), 12u);
}

TEST_F(TransferFixture, PushTreeSlicesAboveTheBundleCapAndAggregates) {
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  // push_bundle refuses above-cap batches outright...
  std::vector<BundleFile> big = make_files(kMaxBundleFiles + 1, 1);
  util::Result<BundleStats> refused =
      util::make_error(util::ErrorCode::kInternal, "never finished");
  manager.push_bundle(transport, BundlePushSpec{"FZ-Juelich", token},
                      std::move(big), small_chunks(),
                      [&](util::Result<BundleStats> r) { refused = std::move(r); });
  engine.run();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, util::ErrorCode::kInvalidArgument);

  // ...while push_tree slices them into sequential wire bundles. Use a
  // small batch with a forced slice boundary via repeated pushes being
  // overkill here: 40 files through push_tree lands in one bundle.
  util::Result<BundleStats> out =
      util::make_error(util::ErrorCode::kInternal, "never finished");
  manager.push_tree(transport, BundlePushSpec{"FZ-Juelich", token},
                    make_files(40, 64 << 10, "t"), small_chunks(),
                    [&](util::Result<BundleStats> r) { out = std::move(r); });
  engine.run();
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value().files, 40u);
  EXPECT_EQ(out.value().bundles, 1u);
  EXPECT_EQ(service.bundle_files_delivered(), 40u);
}

TEST_F(TransferFixture, PullBundleFetchesEveryFileInOneOpen) {
  std::vector<BundleFile> files = make_files(10, 128 << 10, "out");
  for (const auto& f : files)
    ASSERT_TRUE(njs.deliver_file(token, f.name, f.blob).ok());
  auto transport = std::make_shared<Loopback>(engine, service, 4);
  BundlePullSpec spec;
  spec.role = Role::kPeerPull;
  spec.token = token;
  for (const auto& f : files) spec.names.push_back(f.name);
  util::Result<BundlePullResult> out =
      util::make_error(util::ErrorCode::kInternal, "never finished");
  manager.pull_bundle(transport, spec, small_chunks(),
                      [&](util::Result<BundlePullResult> result) {
                        out = std::move(result);
                      });
  engine.run();
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  ASSERT_EQ(out.value().blobs.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(out.value().blobs[i].checksum(), files[i].blob->checksum());
  EXPECT_EQ(out.value().stats.files, 10u);
  EXPECT_EQ(out.value().stats.chunks, 20u);
  EXPECT_EQ(out.value().stats.bundles, 1u);
  EXPECT_EQ(service.outbound_open(), 0u);  // close released the reads
}

TEST_F(TransferFixture, BundlePushRequiresServerPeerCertificate) {
  // A client-authenticated caller must not open a peer-role bundle; the
  // service enforces it independently of the gateway.
  BundleOpenRequest request;
  request.role = Role::kPush;
  request.token = token;
  BundleFileEntry entry;
  entry.name = "x.bin";
  entry.size = 1;
  entry.checksum = uspace::FileBlob::from_string("x").checksum();
  request.files.push_back(entry);
  request.key = make_bundle_key("evil", token, request.files);
  util::Bytes wire = request.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  auto reply = service.bundle_open(dn("Jane"), /*server_peer=*/false, role, r);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, util::ErrorCode::kPermissionDenied);
}

TEST_F(StoreTransferFixture, BundleRepushToNewNamesDedupsWholeBatchInOneRtt) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files = make_files(8, 128 << 10);
  auto first = push_bundle_files(transport, files, small_chunks());
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 16u);
  EXPECT_EQ(service.chunks_applied(), 16u);

  // Same payloads under new names: the bundle key differs, so the
  // tombstone does NOT apply — but the open's per-file digest manifests
  // find every chunk in the store. The whole batch settles in the one
  // open round trip; zero payload moves.
  std::vector<BundleFile> renamed;
  for (std::size_t i = 0; i < files.size(); ++i)
    renamed.push_back({"warm" + std::to_string(i), files[i].blob});
  auto second = push_bundle_files(transport, renamed, small_chunks());
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 0u);
  EXPECT_EQ(second.value().deduped, 16u);
  EXPECT_EQ(service.chunks_applied(), 16u);  // nothing re-applied
  EXPECT_EQ(service.chunks_deduped(), 16u);
  EXPECT_EQ(service.bundle_files_delivered(), 16u);
  for (std::size_t i = 0; i < renamed.size(); ++i)
    EXPECT_EQ(delivered_checksum(renamed[i].name), files[i].blob->checksum());
}

TEST_F(StoreTransferFixture, PullBundleSatisfiesWarmChunksFromLocalStore) {
  std::vector<BundleFile> files = make_files(6, 128 << 10, "out");
  for (const auto& f : files)
    ASSERT_TRUE(njs.deliver_file(token, f.name, f.blob).ok());
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  auto local = std::make_shared<store::ChunkStore>();
  BundlePullSpec spec;
  spec.role = Role::kPeerPull;
  spec.token = token;
  spec.store = local;
  for (const auto& f : files) spec.names.push_back(f.name);

  util::Result<BundlePullResult> cold =
      util::make_error(util::ErrorCode::kInternal, "never finished");
  manager.pull_bundle(transport, spec, small_chunks(),
                      [&](util::Result<BundlePullResult> result) {
                        cold = std::move(result);
                      });
  engine.run();
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_EQ(cold.value().stats.chunks, 12u);

  // The cold pull interned every chunk into the local store (the
  // result blobs pin them). A second pull of the same files settles
  // entirely from the open reply's manifests: zero chunk requests.
  util::Result<BundlePullResult> warm =
      util::make_error(util::ErrorCode::kInternal, "never finished");
  manager.pull_bundle(transport, spec, small_chunks(),
                      [&](util::Result<BundlePullResult> result) {
                        warm = std::move(result);
                      });
  engine.run();
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_EQ(warm.value().stats.chunks, 0u);
  EXPECT_EQ(warm.value().stats.deduped, 12u);
  for (std::size_t i = 0; i < files.size(); ++i)
    EXPECT_EQ(warm.value().blobs[i].checksum(), files[i].blob->checksum());
}

// The satellite regression: a clamped chunk size invalidates the
// sender's digest manifest (it was computed at the proposed
// granularity), so satisfy_open must not apply have-range dedup.
TEST_F(StoreTransferFixture, SatisfyOpenIgnoresManifestAfterChunkSizeClamp) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  uspace::FileBlob blob = uspace::FileBlob::synthetic(1 << 20, 42);
  TransferOptions wide = small_chunks();
  wide.chunk_bytes = 2 * kMinChunkBytes;  // 128 KiB: 8 chunks
  auto first = push_blob(transport, blob, "cold.bin", wide);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 8u);

  // Now the receiver clamps every proposal down to 64 KiB. The re-push
  // proposes 128 KiB again — its digests are 128 KiB-granularity, and
  // every one of them IS in the store. Applying them to the 64 KiB
  // assembly would mark the wrong chunks present; the service must
  // ignore the manifest and take the full 16-chunk transfer instead.
  Service::Limits limits;
  limits.max_chunk_bytes = kMinChunkBytes;
  service.set_limits(limits);
  auto second = push_blob(transport, blob, "clamped.bin", wide);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 16u);  // no dedup: every chunk moved
  EXPECT_EQ(second.value().deduped, 0u);
  EXPECT_EQ(service.chunks_deduped(), 0u);
  EXPECT_EQ(delivered_checksum("clamped.bin"), blob.checksum());
}

TEST_F(StoreTransferFixture, SatisfyBundleOpenIgnoresManifestAfterClamp) {
  auto transport = std::make_shared<Loopback>(engine, service, 2);
  std::vector<BundleFile> files = make_files(4, 256 << 10);
  TransferOptions wide = small_chunks();
  wide.chunk_bytes = 2 * kMinChunkBytes;  // 2 chunks per file
  auto first = push_bundle_files(transport, files, wide);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().chunks, 8u);

  Service::Limits limits;
  limits.max_chunk_bytes = kMinChunkBytes;
  service.set_limits(limits);
  std::vector<BundleFile> renamed;
  for (std::size_t i = 0; i < files.size(); ++i)
    renamed.push_back({"clamped" + std::to_string(i), files[i].blob});
  auto second = push_bundle_files(transport, renamed, wide);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().chunks, 16u);  // 4 files x 4 chunks at 64 KiB
  EXPECT_EQ(second.value().deduped, 0u);
  EXPECT_EQ(service.chunks_deduped(), 0u);
  for (std::size_t i = 0; i < renamed.size(); ++i)
    EXPECT_EQ(delivered_checksum(renamed[i].name), files[i].blob->checksum());
}

TEST_F(TransferFixture, PushRequiresServerPeerCertificate) {
  // A client-authenticated caller must not be able to push a chunk into
  // a peer-role bundle either; the service enforces it independently of
  // the gateway.
  BundleChunkRequest request;
  request.role = Role::kPush;
  request.transfer_id = 1;
  request.chunk = make_chunk(uspace::FileBlob::from_string("x"), 0,
                             kMinChunkBytes);
  util::Bytes wire = request.encode();
  util::ByteReader r{wire};
  Role role = static_cast<Role>(r.u8());
  auto reply = service.chunk(dn("Jane"), /*server_peer=*/false, role, r);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, util::ErrorCode::kPermissionDenied);
}

// ---- malformed replies -----------------------------------------------------

/// Wraps a Loopback and rewrites the first OK reply body of one
/// operation: the peer answered, but with a body the sender must reject.
class MangledReplyTransport : public ChunkTransport {
 public:
  MangledReplyTransport(std::shared_ptr<Loopback> inner, Op victim,
                        std::function<void(util::Bytes&)> mangle)
      : inner_(std::move(inner)), victim_(victim), mangle_(std::move(mangle)) {}

  std::size_t streams() const override { return inner_->streams(); }

  void call(std::size_t stream, Op op, util::Bytes body,
            std::function<void(util::Result<util::Bytes>)> done) override {
    bool hit = op == victim_ && !used_;
    if (hit) used_ = true;
    inner_->call(stream, op, std::move(body),
                 [this, hit, done = std::move(done)](
                     util::Result<util::Bytes> reply) {
                   if (hit && reply.ok()) mangle_(reply.value());
                   done(std::move(reply));
                 });
  }

 private:
  std::shared_ptr<Loopback> inner_;
  Op victim_;
  std::function<void(util::Bytes&)> mangle_;
  bool used_ = false;
};

void cut_last_byte(util::Bytes& body) {
  if (!body.empty()) body.pop_back();
}

TEST_F(TransferFixture, TruncatedOpenReplyFailsTheTransferOnce) {
  auto transport = std::make_shared<MangledReplyTransport>(
      std::make_shared<Loopback>(engine, service, 2), Op::kBundleOpen,
      cut_last_byte);
  auto stats = push_blob(transport, uspace::FileBlob::synthetic(256 << 10, 4),
                         "cut-open.bin", small_chunks());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(stats.error().message, "malformed transfer reply");

  // A reply that decodes but declares a zero chunk size (the u32 after
  // the u64 transfer id) is just as malformed.
  auto zero_chunks = std::make_shared<MangledReplyTransport>(
      std::make_shared<Loopback>(engine, service, 2), Op::kBundleOpen,
      [](util::Bytes& body) {
        std::fill(body.begin() + 8, body.begin() + 12, 0);
      });
  auto zeroed = push_blob(zero_chunks, uspace::FileBlob::synthetic(1 << 20, 8),
                          "zero-chunk.bin", small_chunks());
  ASSERT_FALSE(zeroed.ok());
  EXPECT_EQ(zeroed.error().message, "malformed transfer reply");
}

TEST_F(TransferFixture, TruncatedChunkReplyFailsTheTransferOnce) {
  auto transport = std::make_shared<MangledReplyTransport>(
      std::make_shared<Loopback>(engine, service, 2), Op::kChunk,
      cut_last_byte);
  auto stats = push_blob(transport, uspace::FileBlob::synthetic(256 << 10, 5),
                         "cut-ack.bin", small_chunks());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, util::ErrorCode::kInvalidArgument);

  // The pull side decodes chunk bodies too: a cut Chunk fails the same
  // way instead of throwing out of the engine callback.
  ASSERT_TRUE(njs.deliver_file(token, "big.out",
                               std::make_shared<const uspace::FileBlob>(
                                   uspace::FileBlob::synthetic(1 << 20, 6)))
                  .ok());
  auto pulled = pull_blob(std::make_shared<MangledReplyTransport>(
                              std::make_shared<Loopback>(engine, service, 2),
                              Op::kChunk, cut_last_byte),
                          Role::kPeerPull, "big.out", small_chunks());
  ASSERT_FALSE(pulled.ok());
  EXPECT_EQ(pulled.error().code, util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(pulled.error().message, "malformed transfer reply");
}

}  // namespace
}  // namespace unicore::xfer
