#include "xfer/transfer.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace unicore::xfer {

using util::ErrorCode;
using util::make_error;

namespace {

obs::Labels site_labels(const TransferManager& mgr, const char* direction) {
  return {{"usite", mgr.site()}, {"direction", direction}};
}

/// Errors that mean the receiver no longer knows our ephemeral transfer
/// id (it crashed, or evicted the transfer) — the cure is a re-open by
/// durable key, not a retransmit of the same request.
bool needs_resume(ErrorCode code) {
  return code == ErrorCode::kNotFound || code == ErrorCode::kFailedPrecondition;
}

/// Decodes a peer's reply body. A truncated or garbled body is the
/// peer's fault, not ours: it yields nullopt instead of throwing out of
/// an engine callback.
template <typename T>
std::optional<T> decode_reply(const util::Bytes& body) {
  try {
    util::ByteReader r{body};
    return T::decode(r);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

util::Error malformed_reply() {
  return make_error(ErrorCode::kInvalidArgument, "malformed transfer reply");
}

/// A chunk size a receiver could have negotiated. Anything else would
/// make the local bitmaps degenerate (zero chunks) or enormous.
bool plausible_chunk_bytes(std::uint32_t chunk_bytes) {
  return chunk_bytes >= kMinChunkBytes && chunk_bytes <= kMaxChunkBytes;
}

// ---- bundle push -----------------------------------------------------------

/// One (file index, chunk index) unit of bundle work.
using BundleChunkId = std::pair<std::uint32_t, std::uint64_t>;

class BundlePushRun : public std::enable_shared_from_this<BundlePushRun> {
 public:
  BundlePushRun(TransferManager& mgr,
                std::shared_ptr<ChunkTransport> transport, BundlePushSpec spec,
                std::vector<BundleFile> files, TransferOptions options,
                std::function<void(util::Result<BundleStats>)> done)
      : mgr_(mgr),
        transport_(std::move(transport)),
        spec_(std::move(spec)),
        files_(std::move(files)),
        options_(options),
        done_cb_(std::move(done)) {}

  void start() {
    stats_.started_at = mgr_.engine().now();
    stats_.streams = transport_->streams();
    stats_.files = files_.size();
    stats_.bundles = 1;
    for (const BundleFile& file : files_) stats_.bytes += file.blob->size();
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_active_transfers", site_labels(mgr_, "push"))
          .add(1);
    // The entries (including every per-chunk digest) are computed once
    // and reused across resumes — and they define the durable key.
    entries_.reserve(files_.size());
    for (const BundleFile& file : files_) {
      BundleFileEntry entry;
      entry.name = file.name;
      entry.size = file.blob->size();
      entry.checksum = file.blob->checksum();
      entry.synthetic = file.blob->is_synthetic();
      entry.digests = file.blob->chunk_digests(options_.chunk_bytes);
      entries_.push_back(std::move(entry));
    }
    key_ = make_bundle_key(spec_.source, spec_.token, entries_);
    send_open();
  }

 private:
  std::uint32_t window_limit() const {
    auto window = static_cast<std::uint32_t>(transport_->streams()) *
                  options_.window_per_stream;
    return std::min(window, std::max<std::uint32_t>(credit_, 1));
  }

  void send_open() {
    BundleOpenRequest request;
    request.role = spec_.role;
    request.key = key_;
    request.token = spec_.token;
    request.proposed_chunk_bytes = options_.chunk_bytes;
    request.files = entries_;
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    transport_->call(0, Op::kBundleOpen, request.encode(),
                     [self, gen](util::Result<util::Bytes> reply) {
                       self->on_open_reply(gen, std::move(reply));
                     });
  }

  void on_open_reply(std::uint64_t gen, util::Result<util::Bytes> reply) {
    if (finished_ || gen != generation_) return;
    if (!reply.ok()) {
      if (util::is_retryable(reply.error().code))
        resume("bundle open failed: " + reply.error().to_string());
      else
        fail(reply.error());
      return;
    }
    std::optional<BundleOpenReply> decoded =
        decode_reply<BundleOpenReply>(reply.value());
    if (!decoded) {
      fail(malformed_reply());
      return;
    }
    BundleOpenReply& open = *decoded;
    if (!plausible_chunk_bytes(open.chunk_bytes)) {
      fail(malformed_reply());
      return;
    }
    if (open.files.size() != files_.size()) {
      fail(make_error(ErrorCode::kInternal,
                      "bundle open reply file count mismatch"));
      return;
    }
    transfer_id_ = open.transfer_id;
    chunk_bytes_ = open.chunk_bytes;
    credit_ = open.credit;
    bool first_open = acked_.empty();
    acked_.clear();
    queue_.clear();
    for (std::uint32_t i = 0; i < files_.size(); ++i) {
      std::uint64_t total = chunk_count(files_[i].blob->size(), chunk_bytes_);
      ChunkBitmap bitmap(total);
      if (open.files[i].complete)
        bitmap.apply({ChunkRange{0, total}});
      else
        bitmap.apply(open.files[i].have);  // receiver's journal is the truth
      if (first_open) stats_.deduped += bitmap.count();
      for (std::uint64_t index : bitmap.missing()) queue_.push_back({i, index});
      acked_.push_back(std::move(bitmap));
    }
    pos_ = 0;
    inflight_ = 0;
    if (queue_.empty())
      send_close();
    else
      pump();
  }

  bool all_acked() const {
    for (const ChunkBitmap& bitmap : acked_)
      if (!bitmap.complete()) return false;
    return true;
  }

  void pump() {
    while (pos_ < queue_.size() && inflight_ < window_limit())
      send_chunk(queue_[pos_++]);
  }

  void send_chunk(BundleChunkId id) {
    BundleChunkRequest request;
    request.role = spec_.role;
    request.transfer_id = transfer_id_;
    request.file_index = id.first;
    request.chunk = make_chunk(*files_[id.first].blob, id.second, chunk_bytes_);
    ++inflight_;
    ++stats_.chunks;
    if (auto* m = mgr_.metrics()) {
      auto labels = site_labels(mgr_, "push");
      m->counter("unicore_xfer_chunks_total", labels).increment();
      m->counter("unicore_xfer_bytes_total", labels)
          .add(static_cast<double>(request.chunk.length));
      m->gauge("unicore_xfer_inflight_chunks", labels).add(1);
    }
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    std::size_t stream = next_stream_++ % transport_->streams();
    transport_->call(stream, Op::kChunk, request.encode(),
                     [self, gen, id](util::Result<util::Bytes> reply) {
                       self->on_chunk_reply(gen, id, std::move(reply));
                     });
  }

  void on_chunk_reply(std::uint64_t gen, BundleChunkId id,
                      util::Result<util::Bytes> reply) {
    if (finished_ || gen != generation_) return;
    --inflight_;
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_inflight_chunks", site_labels(mgr_, "push"))
          .add(-1);
    if (!reply.ok()) {
      if (needs_resume(reply.error().code))
        resume("bundle chunk rejected: " + reply.error().to_string());
      else if (util::is_retryable(reply.error().code))
        retry_chunk(id);
      else
        fail(reply.error());
      return;
    }
    std::optional<PushChunkReply> ack =
        decode_reply<PushChunkReply>(reply.value());
    if (!ack) {
      fail(malformed_reply());
      return;
    }
    credit_ = ack->credit;
    if (!ack->applied) ++stats_.duplicates;
    acked_[id.first].set(id.second);
    if (all_acked() && inflight_ == 0)
      send_close();  // wait for stragglers: a post-close ack would 404
    else
      pump();
  }

  void retry_chunk(BundleChunkId id) {
    int attempt = ++chunk_attempts_[id];
    if (attempt > options_.max_chunk_retries) {
      resume("bundle chunk retries exhausted");
      return;
    }
    ++stats_.retransmits;
    if (auto* m = mgr_.metrics())
      m->counter("unicore_xfer_retransmits_total", site_labels(mgr_, "push"))
          .increment();
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    mgr_.engine().after(
        util::backoff_delay_us(options_.backoff, attempt, mgr_.rng()),
        [self, gen, id] {
          if (self->finished_ || gen != self->generation_) return;
          self->send_chunk(id);
        });
  }

  void resume(const std::string& why) {
    if (++resume_attempts_ > options_.max_resume_attempts) {
      fail(make_error(ErrorCode::kUnavailable,
                      "bundle push abandoned after " +
                          std::to_string(options_.max_resume_attempts) +
                          " resumes; last cause: " + why));
      return;
    }
    ++stats_.resumes;
    if (auto* m = mgr_.metrics()) {
      m->counter("unicore_xfer_resumes_total", site_labels(mgr_, "push"))
          .increment();
      m->gauge("unicore_xfer_inflight_chunks", site_labels(mgr_, "push"))
          .add(-static_cast<double>(inflight_));
    }
    ++generation_;
    inflight_ = 0;
    chunk_attempts_.clear();
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    mgr_.engine().after(
        util::backoff_delay_us(options_.backoff, resume_attempts_, mgr_.rng()),
        [self, gen] {
          if (self->finished_ || gen != self->generation_) return;
          self->send_open();  // re-open by durable key: the reply's
                              // per-file have ranges restore the bitmaps
        });
  }

  void send_close() {
    BundleCloseRequest request;
    request.role = spec_.role;
    request.transfer_id = transfer_id_;
    request.key = key_;
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    transport_->call(0, Op::kBundleClose, request.encode(),
                     [self, gen](util::Result<util::Bytes> reply) {
                       self->on_close_reply(gen, std::move(reply));
                     });
  }

  void on_close_reply(std::uint64_t gen, util::Result<util::Bytes> reply) {
    if (finished_ || gen != generation_) return;
    if (!reply.ok()) {
      if (needs_resume(reply.error().code) ||
          util::is_retryable(reply.error().code))
        resume("bundle close failed: " + reply.error().to_string());
      else
        fail(reply.error());
      return;
    }
    stats_.finished_at = mgr_.engine().now();
    finished_ = true;
    if (auto* m = mgr_.metrics()) {
      auto labels = site_labels(mgr_, "push");
      m->gauge("unicore_xfer_active_transfers", labels).add(-1);
      m->counter("unicore_xfer_transfers_total",
                 {{"usite", mgr_.site()},
                  {"direction", "push"},
                  {"result", "ok"}})
          .increment();
      m->histogram("unicore_xfer_transfer_seconds", labels,
                   obs::latency_buckets())
          .observe(sim::to_seconds(stats_.finished_at - stats_.started_at));
    }
    done_cb_(stats_);
  }

  void fail(util::Error error) {
    finished_ = true;
    if (auto* m = mgr_.metrics()) {
      m->gauge("unicore_xfer_active_transfers", site_labels(mgr_, "push"))
          .add(-1);
      m->counter("unicore_xfer_transfers_total",
                 {{"usite", mgr_.site()},
                  {"direction", "push"},
                  {"result", "error"}})
          .increment();
    }
    done_cb_(std::move(error));
  }

  TransferManager& mgr_;
  std::shared_ptr<ChunkTransport> transport_;
  BundlePushSpec spec_;
  std::vector<BundleFile> files_;
  TransferOptions options_;
  std::function<void(util::Result<BundleStats>)> done_cb_;

  util::Bytes key_;
  std::vector<BundleFileEntry> entries_;  // cached across resumes
  std::uint64_t transfer_id_ = 0;
  std::uint32_t chunk_bytes_ = kDefaultChunkBytes;
  std::uint32_t credit_ = 1;
  std::vector<ChunkBitmap> acked_;  // aligned with files_
  std::vector<BundleChunkId> queue_;
  std::size_t pos_ = 0;
  std::uint32_t inflight_ = 0;
  std::size_t next_stream_ = 0;
  std::map<BundleChunkId, int> chunk_attempts_;
  int resume_attempts_ = 0;
  std::uint64_t generation_ = 0;
  bool finished_ = false;
  BundleStats stats_;
};

// ---- bundle pull -----------------------------------------------------------

class BundlePullRun : public std::enable_shared_from_this<BundlePullRun> {
 public:
  BundlePullRun(TransferManager& mgr,
                std::shared_ptr<ChunkTransport> transport, BundlePullSpec spec,
                TransferOptions options,
                std::function<void(util::Result<BundlePullResult>)> done)
      : mgr_(mgr),
        transport_(std::move(transport)),
        spec_(std::move(spec)),
        options_(options),
        done_cb_(std::move(done)) {}

  void start() {
    stats_.started_at = mgr_.engine().now();
    stats_.streams = transport_->streams();
    stats_.files = spec_.names.size();
    stats_.bundles = 1;
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_active_transfers", site_labels(mgr_, "pull"))
          .add(1);
    send_open();
  }

 private:
  std::uint32_t window_limit() const {
    return static_cast<std::uint32_t>(transport_->streams()) *
           options_.window_per_stream;
  }

  void send_open() {
    BundlePullOpenRequest request;
    request.role = spec_.role;
    request.token = spec_.token;
    request.proposed_chunk_bytes = options_.chunk_bytes;
    request.names = spec_.names;
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    transport_->call(0, Op::kBundleOpen, request.encode(),
                     [self, gen](util::Result<util::Bytes> reply) {
                       self->on_open_reply(gen, std::move(reply));
                     });
  }

  void on_open_reply(std::uint64_t gen, util::Result<util::Bytes> reply) {
    if (finished_ || gen != generation_) return;
    if (!reply.ok()) {
      if (util::is_retryable(reply.error().code))
        resume("bundle open failed: " + reply.error().to_string());
      else
        fail(reply.error());
      return;
    }
    std::optional<BundlePullOpenReply> decoded =
        decode_reply<BundlePullOpenReply>(reply.value());
    if (!decoded) {
      fail(malformed_reply());
      return;
    }
    BundlePullOpenReply& open = *decoded;
    if (open.inlined && spec_.names.size() == 1) {
      stats_.inlined = 1;
      stats_.bytes = open.blob.size();
      BundlePullResult result;
      result.blobs.push_back(std::move(open.blob));
      finish_with(std::move(result));
      return;
    }
    if (open.files.size() != spec_.names.size()) {
      fail(make_error(ErrorCode::kInternal,
                      "bundle open reply file count mismatch"));
      return;
    }
    // The declared sizes size the local bitmaps: bound them first.
    std::uint64_t chunks = 0;
    for (const BundlePullFileInfo& info : open.files)
      chunks += std::min(chunk_count(info.size, open.chunk_bytes),
                         kMaxBundleChunks + 1);
    if (!plausible_chunk_bytes(open.chunk_bytes) || chunks > kMaxBundleChunks) {
      fail(malformed_reply());
      return;
    }
    transfer_id_ = open.transfer_id;
    if (assemblies_.empty()) {
      assemblies_.reserve(open.files.size());
      for (const BundlePullFileInfo& info : open.files) {
        Assembly assembly(info.size, info.checksum, info.synthetic,
                          open.chunk_bytes);
        if (spec_.store != nullptr) assembly.attach_store(spec_.store);
        assemblies_.push_back(std::move(assembly));
        stats_.bytes += info.size;
      }
    } else {
      for (std::size_t i = 0; i < open.files.size(); ++i) {
        if (assemblies_[i].size() != open.files[i].size ||
            assemblies_[i].checksum() != open.files[i].checksum ||
            assemblies_[i].chunk_bytes() != open.chunk_bytes) {
          fail(make_error(ErrorCode::kFailedPrecondition,
                          "file identity changed across a pull resume"));
          return;
        }
      }
    }
    queue_.clear();
    for (std::uint32_t i = 0; i < assemblies_.size(); ++i) {
      // The per-file manifests let the local store satisfy warm chunks
      // before anything crosses the wire (re-checked on every resume:
      // the store may have gained chunks since).
      if (spec_.store != nullptr && !open.files[i].digests.empty() &&
          !assemblies_[i].complete())
        stats_.deduped += assemblies_[i].satisfy_from_store(
            open.files[i].digests);
      for (std::uint64_t index : assemblies_[i].bitmap().missing())
        queue_.push_back({i, index});
    }
    pos_ = 0;
    inflight_ = 0;
    if (queue_.empty())
      finish_assembled();
    else
      pump();
  }

  bool all_complete() const {
    for (const Assembly& assembly : assemblies_)
      if (!assembly.complete()) return false;
    return true;
  }

  void pump() {
    while (pos_ < queue_.size() && inflight_ < window_limit())
      send_chunk_request(queue_[pos_++]);
  }

  void send_chunk_request(BundleChunkId id) {
    BundlePullChunkRequest request;
    request.role = spec_.role;
    request.transfer_id = transfer_id_;
    request.file_index = id.first;
    request.index = id.second;
    ++inflight_;
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_inflight_chunks", site_labels(mgr_, "pull"))
          .add(1);
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    std::size_t stream = next_stream_++ % transport_->streams();
    transport_->call(stream, Op::kChunk, request.encode(),
                     [self, gen, id](util::Result<util::Bytes> reply) {
                       self->on_chunk_reply(gen, id, std::move(reply));
                     });
  }

  void on_chunk_reply(std::uint64_t gen, BundleChunkId id,
                      util::Result<util::Bytes> reply) {
    if (finished_ || gen != generation_) return;
    --inflight_;
    if (auto* m = mgr_.metrics())
      m->gauge("unicore_xfer_inflight_chunks", site_labels(mgr_, "pull"))
          .add(-1);
    if (!reply.ok()) {
      if (needs_resume(reply.error().code))
        resume("bundle chunk fetch rejected: " + reply.error().to_string());
      else if (util::is_retryable(reply.error().code))
        retry_chunk(id);
      else
        fail(reply.error());
      return;
    }
    std::optional<Chunk> chunk = decode_reply<Chunk>(reply.value());
    if (!chunk) {
      fail(malformed_reply());
      return;
    }
    util::Status accepted = assemblies_[id.first].accept(*chunk);
    if (!accepted.ok()) {
      retry_chunk(id);  // corrupt ≈ transient at this layer (bounded)
      return;
    }
    ++stats_.chunks;
    if (auto* m = mgr_.metrics()) {
      auto labels = site_labels(mgr_, "pull");
      m->counter("unicore_xfer_chunks_total", labels).increment();
      m->counter("unicore_xfer_bytes_total", labels)
          .add(static_cast<double>(chunk->length));
    }
    if (all_complete() && inflight_ == 0)
      finish_assembled();
    else
      pump();
  }

  void retry_chunk(BundleChunkId id) {
    int attempt = ++chunk_attempts_[id];
    if (attempt > options_.max_chunk_retries) {
      resume("bundle chunk retries exhausted");
      return;
    }
    ++stats_.retransmits;
    if (auto* m = mgr_.metrics())
      m->counter("unicore_xfer_retransmits_total", site_labels(mgr_, "pull"))
          .increment();
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    mgr_.engine().after(
        util::backoff_delay_us(options_.backoff, attempt, mgr_.rng()),
        [self, gen, id] {
          if (self->finished_ || gen != self->generation_) return;
          self->send_chunk_request(id);
        });
  }

  void resume(const std::string& why) {
    if (++resume_attempts_ > options_.max_resume_attempts) {
      fail(make_error(ErrorCode::kUnavailable,
                      "bundle pull abandoned after " +
                          std::to_string(options_.max_resume_attempts) +
                          " resumes; last cause: " + why));
      return;
    }
    ++stats_.resumes;
    if (auto* m = mgr_.metrics()) {
      m->counter("unicore_xfer_resumes_total", site_labels(mgr_, "pull"))
          .increment();
      m->gauge("unicore_xfer_inflight_chunks", site_labels(mgr_, "pull"))
          .add(-static_cast<double>(inflight_));
    }
    ++generation_;
    inflight_ = 0;
    chunk_attempts_.clear();
    auto self = shared_from_this();
    std::uint64_t gen = generation_;
    mgr_.engine().after(
        util::backoff_delay_us(options_.backoff, resume_attempts_, mgr_.rng()),
        [self, gen] {
          if (self->finished_ || gen != self->generation_) return;
          self->send_open();  // local bitmaps survive: only missing
                              // chunks are re-requested
        });
  }

  void finish_assembled() {
    // Best-effort release of the source's outgoing handle (also expires
    // on idle).
    BundleCloseRequest request;
    request.role = spec_.role;
    request.transfer_id = transfer_id_;
    transport_->call(0, Op::kBundleClose, request.encode(),
                     [](util::Result<util::Bytes>) {});
    BundlePullResult result;
    result.blobs.reserve(assemblies_.size());
    for (Assembly& assembly : assemblies_) {
      util::Result<uspace::FileBlob> blob = assembly.finish();
      if (!blob.ok()) {
        fail(blob.error());
        return;
      }
      result.blobs.push_back(std::move(blob).value());
    }
    finish_with(std::move(result));
  }

  void finish_with(BundlePullResult result) {
    stats_.finished_at = mgr_.engine().now();
    finished_ = true;
    if (auto* m = mgr_.metrics()) {
      auto labels = site_labels(mgr_, "pull");
      m->gauge("unicore_xfer_active_transfers", labels).add(-1);
      m->counter("unicore_xfer_transfers_total",
                 {{"usite", mgr_.site()},
                  {"direction", "pull"},
                  {"result", "ok"}})
          .increment();
      m->histogram("unicore_xfer_transfer_seconds", labels,
                   obs::latency_buckets())
          .observe(sim::to_seconds(stats_.finished_at - stats_.started_at));
    }
    result.stats = stats_;
    done_cb_(std::move(result));
  }

  void fail(util::Error error) {
    finished_ = true;
    if (auto* m = mgr_.metrics()) {
      m->gauge("unicore_xfer_active_transfers", site_labels(mgr_, "pull"))
          .add(-1);
      m->counter("unicore_xfer_transfers_total",
                 {{"usite", mgr_.site()},
                  {"direction", "pull"},
                  {"result", "error"}})
          .increment();
    }
    done_cb_(std::move(error));
  }

  TransferManager& mgr_;
  std::shared_ptr<ChunkTransport> transport_;
  BundlePullSpec spec_;
  TransferOptions options_;
  std::function<void(util::Result<BundlePullResult>)> done_cb_;

  std::uint64_t transfer_id_ = 0;
  std::vector<Assembly> assemblies_;  // survive resumes
  std::vector<BundleChunkId> queue_;
  std::size_t pos_ = 0;
  std::uint32_t inflight_ = 0;
  std::size_t next_stream_ = 0;
  std::map<BundleChunkId, int> chunk_attempts_;
  int resume_attempts_ = 0;
  std::uint64_t generation_ = 0;
  bool finished_ = false;
  BundleStats stats_;
};

void merge_bundle_stats(BundleStats& into, const BundleStats& slice) {
  into.files += slice.files;
  into.bytes += slice.bytes;
  into.chunks += slice.chunks;
  into.deduped += slice.deduped;
  into.duplicates += slice.duplicates;
  into.retransmits += slice.retransmits;
  into.resumes += slice.resumes;
  into.bundles += slice.bundles;
  into.streams = std::max(into.streams, slice.streams);
  into.finished_at = slice.finished_at;
}

}  // namespace

void TransferManager::push_bundle(
    std::shared_ptr<ChunkTransport> transport, const BundlePushSpec& spec,
    std::vector<BundleFile> files, const TransferOptions& options,
    std::function<void(util::Result<BundleStats>)> done) {
  if (files.empty()) {
    done(make_error(ErrorCode::kInvalidArgument, "bundle push with no files"));
    return;
  }
  if (files.size() > kMaxBundleFiles) {
    done(make_error(ErrorCode::kInvalidArgument,
                    "bundle exceeds " + std::to_string(kMaxBundleFiles) +
                        " files; use push_tree"));
    return;
  }
  auto run = std::make_shared<BundlePushRun>(*this, std::move(transport), spec,
                                             std::move(files), options,
                                             std::move(done));
  run->start();
}

void TransferManager::push_tree(
    std::shared_ptr<ChunkTransport> transport, const BundlePushSpec& spec,
    std::vector<BundleFile> files, const TransferOptions& options,
    std::function<void(util::Result<BundleStats>)> done) {
  if (files.empty()) {
    BundleStats stats;
    stats.started_at = engine_.now();
    stats.finished_at = stats.started_at;
    done(stats);
    return;
  }
  // Shared driver state: slices run sequentially so each reuses the
  // transport's streams at full window instead of competing.
  struct Tree {
    TransferManager* mgr;
    std::shared_ptr<ChunkTransport> transport;
    BundlePushSpec spec;
    std::vector<BundleFile> files;
    TransferOptions options;
    std::function<void(util::Result<BundleStats>)> done;
    std::size_t next = 0;
    BundleStats total;
    void advance(std::shared_ptr<Tree> self) {
      std::size_t count =
          std::min<std::size_t>(files.size() - next, kMaxBundleFiles);
      std::vector<BundleFile> slice(
          std::make_move_iterator(files.begin() + next),
          std::make_move_iterator(files.begin() + next + count));
      next += count;
      mgr->push_bundle(transport, spec, std::move(slice), options,
                       [self](util::Result<BundleStats> result) {
                         if (!result.ok()) {
                           self->done(result.error());
                           return;
                         }
                         if (self->total.files == 0)
                           self->total.started_at =
                               result.value().started_at;
                         merge_bundle_stats(self->total, result.value());
                         if (self->next < self->files.size())
                           self->advance(self);
                         else
                           self->done(self->total);
                       });
    }
  };
  auto tree = std::make_shared<Tree>();
  tree->mgr = this;
  tree->transport = std::move(transport);
  tree->spec = spec;
  tree->files = std::move(files);
  tree->options = options;
  tree->done = std::move(done);
  tree->advance(tree);
}

void TransferManager::pull_bundle(
    std::shared_ptr<ChunkTransport> transport, const BundlePullSpec& spec,
    const TransferOptions& options,
    std::function<void(util::Result<BundlePullResult>)> done) {
  if (spec.names.empty()) {
    done(make_error(ErrorCode::kInvalidArgument, "bundle pull with no files"));
    return;
  }
  if (spec.names.size() > kMaxBundleFiles) {
    done(make_error(ErrorCode::kInvalidArgument,
                    "bundle exceeds " + std::to_string(kMaxBundleFiles) +
                        " files; use pull_tree"));
    return;
  }
  auto run = std::make_shared<BundlePullRun>(*this, std::move(transport), spec,
                                             options, std::move(done));
  run->start();
}

void TransferManager::pull_tree(
    std::shared_ptr<ChunkTransport> transport, const BundlePullSpec& spec,
    const TransferOptions& options,
    std::function<void(util::Result<BundlePullResult>)> done) {
  if (spec.names.empty()) {
    BundlePullResult result;
    result.stats.started_at = engine_.now();
    result.stats.finished_at = result.stats.started_at;
    done(std::move(result));
    return;
  }
  struct Tree {
    TransferManager* mgr;
    std::shared_ptr<ChunkTransport> transport;
    BundlePullSpec spec;  // names consumed slice by slice
    std::vector<std::string> names;
    TransferOptions options;
    std::function<void(util::Result<BundlePullResult>)> done;
    std::size_t next = 0;
    BundlePullResult total;
    void advance(std::shared_ptr<Tree> self) {
      std::size_t count =
          std::min<std::size_t>(names.size() - next, kMaxBundleFiles);
      BundlePullSpec slice = spec;
      slice.names.assign(names.begin() + next, names.begin() + next + count);
      next += count;
      mgr->pull_bundle(transport, slice, options,
                       [self](util::Result<BundlePullResult> result) {
                         if (!result.ok()) {
                           self->done(result.error());
                           return;
                         }
                         BundlePullResult& got = result.value();
                         if (self->total.stats.files == 0)
                           self->total.stats.started_at =
                               got.stats.started_at;
                         merge_bundle_stats(self->total.stats, got.stats);
                         for (auto& blob : got.blobs)
                           self->total.blobs.push_back(std::move(blob));
                         if (self->next < self->names.size())
                           self->advance(self);
                         else
                           self->done(std::move(self->total));
                       });
    }
  };
  auto tree = std::make_shared<Tree>();
  tree->mgr = this;
  tree->transport = std::move(transport);
  tree->spec = spec;
  tree->names = spec.names;
  tree->options = options;
  tree->done = std::move(done);
  tree->advance(tree);
}

}  // namespace unicore::xfer
