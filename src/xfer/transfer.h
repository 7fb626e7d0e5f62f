// The sender/receiver-driver half of the chunked transfer engine: a
// TransferManager that pushes files to a remote Uspace, or pulls them
// out of it, as independently acknowledged chunks striped over parallel
// streams. Every transfer is a bundle — a single file is a bundle of
// one — so there is one open/chunk/close exchange for every size.
//
// The engine sits below the server layer, so it talks through an
// abstract ChunkTransport: stream s, operation op, opaque body. The
// server binds streams to parallel secure channels (one connection per
// stream ≈ one bandwidth lane in the simulated network — this is where
// the paper's single-message transfer rate ceiling (§5.6) is broken);
// tests bind them to an in-process loopback.
//
// Failure handling has two tiers. A failed chunk is retransmitted on
// its own (bounded retries with backoff); a failure that outlives
// retransmission — or a receiver crash that invalidates the ephemeral
// transfer id — triggers a *resume*: re-open by durable key, learn
// which chunks the receiver already journaled, and send only the rest.
// Acknowledgements from before a resume carry a stale generation and
// are ignored. A reply body that does not decode fails the transfer
// once with kInvalidArgument.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ajo/job.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "uspace/blob.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/rng.h"
#include "xfer/chunk.h"
#include "xfer/wire.h"

namespace unicore::xfer {

/// How the engine reaches the peer: `streams()` parallel lanes, each
/// carrying request/reply exchanges of the three transfer operations.
/// Implementations own framing, security, and timeouts; the engine owns
/// retries and resume.
class ChunkTransport {
 public:
  virtual ~ChunkTransport() = default;
  virtual std::size_t streams() const = 0;
  virtual void call(std::size_t stream, Op op, util::Bytes body,
                    std::function<void(util::Result<util::Bytes>)> done) = 0;
};

struct TransferOptions {
  std::uint32_t chunk_bytes = kDefaultChunkBytes;  // proposal; receiver clamps
  std::uint32_t window_per_stream = 4;  // unacked chunks per stream
  int max_resume_attempts = 5;          // open/resume ladder
  int max_chunk_retries = 3;            // per-chunk retransmits before resume
  util::BackoffPolicy backoff;          // between resumes / retransmits
};

/// One file of a bundle push.
struct BundleFile {
  std::string name;
  std::shared_ptr<const uspace::FileBlob> blob;
};

/// Identity of a push: where the files go and where they come from
/// (the source label keys the durable bundle key, so the same files
/// re-pushed from the same site resume instead of restarting).
struct BundlePushSpec {
  std::string source;  // sending Usite name (or "client:<cn>")
  ajo::JobToken token = 0;
  Role role = Role::kPush;  // kPush or kClientPush
};

struct BundlePullSpec {
  Role role = Role::kPeerPull;  // kPeerPull or kClientPull
  ajo::JobToken token = 0;
  std::vector<std::string> names;
  /// Optional local chunk store: chunks the open reply's digest
  /// manifests say we already hold are satisfied without a request
  /// (the pull-path mirror of the push-open dedup).
  std::shared_ptr<store::ChunkStore> store;
};

/// What a transfer (one or more wire bundles) did.
struct BundleStats {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;       // chunks moved this run (not resumed-over)
  std::uint64_t deduped = 0;      // chunks the open round trip settled
  std::uint64_t duplicates = 0;   // chunks the receiver already had
  std::uint64_t retransmits = 0;  // chunk-level retries
  std::uint64_t resumes = 0;      // re-opens after failure
  std::uint64_t inlined = 0;      // pull: files returned in the open reply
  std::uint64_t bundles = 0;      // wire bundles (tree calls may slice)
  std::uint64_t streams = 0;
  sim::Time started_at = 0;
  sim::Time finished_at = 0;
};

struct BundlePullResult {
  std::vector<uspace::FileBlob> blobs;  // aligned with spec.names
  BundleStats stats;
};

/// Drives pushes and pulls. One manager per endpoint (Usite server or
/// client); transfers run concurrently and independently.
class TransferManager {
 public:
  TransferManager(sim::Engine& engine, util::Rng& rng)
      : engine_(engine), rng_(rng) {}

  /// Metrics are looked up by name on every update, so a registry swap
  /// (Njs::set_metrics) takes effect immediately. `site` labels the
  /// series.
  void set_metrics(obs::MetricsRegistry* metrics, std::string site) {
    metrics_ = metrics;
    site_ = std::move(site);
  }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  const std::string& site() const { return site_; }
  sim::Engine& engine() const { return engine_; }
  util::Rng& rng() const { return rng_; }

  /// Streams up to kMaxBundleFiles files into job `spec.token`'s Uspace
  /// on the peer behind `transport` in ONE bundle: one open whose reply
  /// dedups the whole batch, interleaved chunks sharing one credit
  /// window, one close. Fails with kInvalidArgument above the cap — use
  /// push_tree for arbitrary counts. The callback fires exactly once.
  void push_bundle(std::shared_ptr<ChunkTransport> transport,
                   const BundlePushSpec& spec, std::vector<BundleFile> files,
                   const TransferOptions& options,
                   std::function<void(util::Result<BundleStats>)> done);

  /// Pushes any number of files, slicing them into sequential bundles
  /// of kMaxBundleFiles; the returned stats aggregate all slices.
  void push_tree(std::shared_ptr<ChunkTransport> transport,
                 const BundlePushSpec& spec, std::vector<BundleFile> files,
                 const TransferOptions& options,
                 std::function<void(util::Result<BundleStats>)> done);

  /// Fetches up to kMaxBundleFiles files in one bundle; the open
  /// reply's per-file digest manifests let `spec.store` satisfy warm
  /// chunks locally before anything is requested. A pull of exactly one
  /// file of at most kPullInlineLimit bytes completes in the open reply.
  void pull_bundle(std::shared_ptr<ChunkTransport> transport,
                   const BundlePullSpec& spec, const TransferOptions& options,
                   std::function<void(util::Result<BundlePullResult>)> done);

  /// Fetches any number of files, slicing into sequential bundles.
  void pull_tree(std::shared_ptr<ChunkTransport> transport,
                 const BundlePullSpec& spec, const TransferOptions& options,
                 std::function<void(util::Result<BundlePullResult>)> done);

 private:
  sim::Engine& engine_;
  util::Rng& rng_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::string site_;
};

}  // namespace unicore::xfer
