#include "xfer/service.h"

#include <algorithm>
#include <utility>

namespace unicore::xfer {

using util::Bytes;
using util::ErrorCode;
using util::make_error;
using util::Result;

std::uint32_t Service::clamp_chunk_bytes(std::uint32_t proposed) const {
  return std::clamp(proposed, limits_.min_chunk_bytes,
                    limits_.max_chunk_bytes);
}

std::uint64_t Service::buffered_total() const {
  std::uint64_t total = 0;
  for (const auto& [key, bundle] : bundles_)
    for (const Assembly& assembly : bundle->assemblies)
      total += assembly.buffered_bytes();
  return total;
}

std::uint32_t Service::credit_for_bytes(std::uint32_t chunk_bytes) const {
  std::uint64_t buffered = buffered_total();
  std::uint64_t room = buffered < limits_.buffer_limit_bytes
                           ? limits_.buffer_limit_bytes - buffered
                           : 0;
  std::uint64_t chunks = room / std::max<std::uint32_t>(chunk_bytes, 1);
  return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      chunks, 1, limits_.max_credit));  // never stall a sender completely
}

void Service::update_gauges() {
  auto& m = *njs_.metrics();
  obs::Labels labels{{"usite", njs_.usite()}};
  m.gauge("unicore_xfer_open_inbound", labels)
      .set(static_cast<double>(bundles_.size()));
  m.gauge("unicore_xfer_open_outbound", labels)
      .set(static_cast<double>(outgoing_bundles_.size()));
  m.gauge("unicore_xfer_buffered_bytes", labels)
      .set(static_cast<double>(buffered_total()));
}

util::Status Service::deliver_bundle_file(IncomingBundle& bundle,
                                          std::uint32_t index) {
  auto blob = bundle.assemblies[index].finish();
  if (!blob.ok())
    return make_error(ErrorCode::kInternal,
                      "whole-file verification failed: " +
                          blob.error().message);
  auto status = njs_.deliver_file(
      bundle.manifest.token, bundle.manifest.files[index].name,
      std::make_shared<const uspace::FileBlob>(std::move(blob).value()));
  if (!status.ok()) return status.error();
  bundle.delivered[index] = true;
  // Free the drained buffers; delivered[] keeps re-deliveries duplicate.
  bundle.assemblies[index] = Assembly();
  ++bundle_files_delivered_;
  return util::Status();
}

std::uint64_t Service::satisfy_bundle_open(IncomingBundle& bundle,
                                           const BundleOpenRequest& request) {
  // The sender's digest manifests are only meaningful at the
  // granularity they were computed for; a clamped chunk size
  // invalidates them.
  if (store_ == nullptr ||
      bundle.manifest.chunk_bytes != request.proposed_chunk_bytes)
    return 0;
  std::uint64_t satisfied = 0;
  for (std::uint32_t i = 0; i < bundle.assemblies.size(); ++i) {
    if (bundle.delivered[i] || request.files[i].digests.empty()) continue;
    satisfied += bundle.assemblies[i].satisfy_from_store(
        request.files[i].digests);
    // Fully warm files deliver straight from the open — the whole-batch
    // dedup that turns an unchanged tree into one RTT. A delivery
    // failure leaves the file complete-but-undelivered; close retries.
    if (bundle.assemblies[i].complete())
      (void)deliver_bundle_file(bundle, i);
  }
  if (satisfied > 0) {
    chunks_deduped_ += satisfied;
    njs_.metrics()
        ->counter("unicore_xfer_dedup_chunks_total",
                  {{"usite", njs_.usite()}})
        .add(static_cast<double>(satisfied));
  }
  return satisfied;
}

BundleOpenReply Service::bundle_resume_reply(
    const IncomingBundle& bundle) const {
  BundleOpenReply reply;
  reply.transfer_id = bundle.id;
  reply.chunk_bytes = bundle.manifest.chunk_bytes;
  reply.credit = credit_for_bytes(bundle.manifest.chunk_bytes);
  reply.files.resize(bundle.assemblies.size());
  for (std::size_t i = 0; i < bundle.assemblies.size(); ++i) {
    reply.files[i].complete =
        bundle.delivered[i] || bundle.assemblies[i].complete();
    if (!reply.files[i].complete)
      reply.files[i].have = bundle.assemblies[i].bitmap().ranges();
  }
  return reply;
}

Result<Bytes> Service::bundle_open(const crypto::DistinguishedName& principal,
                                   bool server_peer, Role role,
                                   util::ByteReader& r) {
  njs_.metrics()
      ->counter("unicore_xfer_opens_total",
                {{"usite", njs_.usite()}, {"kind", "bundle"}})
      .increment();
  switch (role) {
    case Role::kPush:
      if (!server_peer)
        return make_error(ErrorCode::kPermissionDenied,
                          "push requires a peer server certificate");
      return bundle_open_push(principal, role, r);
    case Role::kClientPush:
      if (server_peer)
        return make_error(ErrorCode::kPermissionDenied,
                          "client push requires a user certificate");
      return bundle_open_push(principal, role, r);
    case Role::kPeerPull:
      if (!server_peer)
        return make_error(ErrorCode::kPermissionDenied,
                          "peer pull requires a peer server certificate");
      return bundle_open_pull(principal, role, r);
    case Role::kClientPull:
      if (server_peer)
        return make_error(ErrorCode::kPermissionDenied,
                          "client pull requires a user certificate");
      return bundle_open_pull(principal, role, r);
  }
  return make_error(ErrorCode::kInvalidArgument, "unknown transfer role");
}

Result<Bytes> Service::bundle_open_push(
    const crypto::DistinguishedName& principal, Role role,
    util::ByteReader& r) {
  BundleOpenRequest request = BundleOpenRequest::decode(r);
  request.role = role;
  if (request.files.empty() || request.files.size() > kMaxBundleFiles)
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file count out of range");
  std::uint32_t chunk_bytes = clamp_chunk_bytes(request.proposed_chunk_bytes);
  std::uint64_t chunks = 0;
  for (const BundleFileEntry& entry : request.files) {
    chunks += std::min(chunk_count(entry.size, chunk_bytes),
                       kMaxBundleChunks + 1);
    if (chunks > kMaxBundleChunks)
      return make_error(ErrorCode::kInvalidArgument,
                        "bundle spans more than kMaxBundleChunks chunks");
  }

  if (completed_bundles_.count(request.key) != 0) {
    // Already committed (possibly before a crash): report every file
    // complete so the sender goes straight to close.
    BundleOpenReply reply;
    reply.transfer_id = 0;
    reply.chunk_bytes = chunk_bytes;
    reply.credit = 0;
    reply.files.resize(request.files.size());
    for (BundleFileState& file : reply.files) file.complete = true;
    return reply.encode();
  }

  if (auto it = bundles_.find(request.key); it != bundles_.end()) {
    IncomingBundle& bundle = *it->second;
    if (bundle.manifest.principal != principal)
      return make_error(ErrorCode::kPermissionDenied,
                        "bundle belongs to another principal");
    if (bundle.manifest.files.size() != request.files.size())
      return make_error(ErrorCode::kFailedPrecondition,
                        "open does not match the journaled bundle manifest");
    for (std::size_t i = 0; i < request.files.size(); ++i) {
      const BundleFileMeta& meta = bundle.manifest.files[i];
      const BundleFileEntry& entry = request.files[i];
      if (meta.name != entry.name || meta.size != entry.size ||
          meta.checksum != entry.checksum ||
          meta.synthetic != entry.synthetic)
        return make_error(ErrorCode::kFailedPrecondition,
                          "open does not match the journaled bundle manifest");
    }
    // Chunks the store gained since the interruption are acked here.
    satisfy_bundle_open(bundle, request);
    return bundle_resume_reply(bundle).encode();
  }

  // New bundle: the target job must exist here (and, for a client
  // staging its own job, belong to the caller).
  auto owner = njs_.owner(request.token);
  if (!owner.ok()) return owner.error();
  if (role == Role::kClientPush && !(owner.value() == principal))
    return make_error(ErrorCode::kPermissionDenied,
                      "job belongs to another user");

  auto bundle = std::make_unique<IncomingBundle>();
  bundle->manifest.key = request.key;
  bundle->manifest.token = request.token;
  bundle->manifest.chunk_bytes = chunk_bytes;
  bundle->manifest.principal = principal;
  bundle->manifest.files.reserve(request.files.size());
  bundle->assemblies.reserve(request.files.size());
  for (const BundleFileEntry& entry : request.files) {
    BundleFileMeta meta;
    meta.name = entry.name;
    meta.size = entry.size;
    meta.checksum = entry.checksum;
    meta.synthetic = entry.synthetic;
    bundle->manifest.files.push_back(std::move(meta));
    Assembly assembly(entry.size, entry.checksum, entry.synthetic,
                      bundle->manifest.chunk_bytes);
    if (store_ != nullptr) assembly.attach_store(store_);
    bundle->assemblies.push_back(std::move(assembly));
  }
  bundle->delivered.assign(request.files.size(), false);
  bundle->id = next_id_++;
  bundle->opened_at = engine_.now();
  // ONE durable record covers the whole bundle — the journal-side
  // amortization that pairs with the single open/close RTT.
  if (njs::Journal* journal = njs_.journal_for(bundle->manifest.token))
    journal_bundle_manifest(*journal, bundle->manifest);
  {
    auto& m = *njs_.metrics();
    obs::Labels labels{{"usite", njs_.usite()}};
    m.counter("unicore_xfer_bundle_files_total", labels)
        .add(static_cast<double>(request.files.size()));
    // Against a baseline of one open + one close RTT per file, a bundle
    // spends two RTTs total: 2n - 2 saved.
    m.counter("unicore_xfer_rtts_saved_total", labels)
        .add(static_cast<double>(2 * request.files.size() - 2));
  }
  satisfy_bundle_open(*bundle, request);

  BundleOpenReply reply = bundle_resume_reply(*bundle);
  bundles_by_id_[bundle->id] = bundle.get();
  bundles_.emplace(request.key, std::move(bundle));
  update_gauges();
  return reply.encode();
}

Result<Bytes> Service::bundle_open_pull(
    const crypto::DistinguishedName& principal, Role role,
    util::ByteReader& r) {
  BundlePullOpenRequest request = BundlePullOpenRequest::decode(role, r);
  if (request.names.empty() || request.names.size() > kMaxBundleFiles)
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file count out of range");
  if (role == Role::kClientPull) {
    auto owner = njs_.owner(request.token);
    if (!owner.ok()) return owner.error();
    if (!(owner.value() == principal))
      return make_error(ErrorCode::kPermissionDenied,
                        "job belongs to another user");
  }

  OutgoingBundle outgoing;
  outgoing.blobs.reserve(request.names.size());
  for (const std::string& name : request.names) {
    auto blob = njs_.fetch_file_shared(request.token, name);
    if (!blob.ok()) return blob.error();
    outgoing.blobs.push_back(std::move(blob).value());
  }
  BundlePullOpenReply reply;
  if (outgoing.blobs.size() == 1 &&
      outgoing.blobs[0]->size() <= kPullInlineLimit) {
    reply.inlined = true;
    reply.blob = *outgoing.blobs[0];
    return reply.encode();
  }
  outgoing.chunk_bytes = clamp_chunk_bytes(request.proposed_chunk_bytes);
  reply.chunk_bytes = outgoing.chunk_bytes;
  reply.files.reserve(outgoing.blobs.size());
  for (const auto& blob : outgoing.blobs) {
    BundlePullFileInfo info;
    info.size = blob->size();
    info.checksum = blob->checksum();
    info.synthetic = blob->is_synthetic();
    // The reply's digests ARE the pull-path manifest negotiation: the
    // puller's store satisfies matching chunks without a request.
    info.digests = blob->chunk_digests(outgoing.chunk_bytes);
    reply.files.push_back(std::move(info));
  }
  outgoing.id = next_id_++;
  reply.transfer_id = outgoing.id;
  auto [it, inserted] =
      outgoing_bundles_.emplace(outgoing.id, std::move(outgoing));
  touch_outgoing_bundle(it->second);
  update_gauges();
  return reply.encode();
}

Result<Bytes> Service::bundle_push_chunk(
    const crypto::DistinguishedName& principal,
    const BundleChunkRequest& request) {
  auto it = bundles_by_id_.find(request.transfer_id);
  if (it == bundles_by_id_.end())
    return make_error(ErrorCode::kNotFound,
                      "no such bundle (receiver restarted?)");
  IncomingBundle& bundle = *it->second;
  if (bundle.manifest.principal != principal)
    return make_error(ErrorCode::kPermissionDenied,
                      "bundle belongs to another principal");
  if (request.file_index >= bundle.assemblies.size())
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file index out of range");
  Assembly& assembly = bundle.assemblies[request.file_index];

  PushChunkReply reply;
  if (bundle.delivered[request.file_index] ||
      assembly.bitmap().test(request.chunk.index)) {
    // Idempotent re-delivery: journaled (and possibly acked) before a
    // crash or a lost ack. Never applied twice.
    ++duplicates_suppressed_;
    njs_.metrics()
        ->counter("unicore_xfer_duplicate_chunks_total",
                  {{"usite", njs_.usite()}})
        .increment();
    reply.applied = false;
    reply.credit = credit_for_bytes(bundle.manifest.chunk_bytes);
    return reply.encode();
  }
  if (!assembly.synthetic() &&
      buffered_total() + request.chunk.length > limits_.buffer_limit_bytes)
    return make_error(ErrorCode::kResourceExhausted,
                      "receive window full");  // retryable: backs off

  util::Status accepted = assembly.accept(request.chunk);
  if (!accepted.ok()) return accepted.error();
  // Write-ahead: the chunk must be durable before the ack can leave —
  // a crash after this append answers the retransmit as a duplicate.
  if (njs::Journal* journal = njs_.journal_for(bundle.manifest.token))
    journal_bundle_chunk(*journal, bundle.manifest, request.file_index,
                         request.chunk);
  ++chunks_applied_;
  // Files deliver eagerly as their last chunk lands — the close only
  // commits the bundle, it does not gate any file's visibility.
  if (assembly.complete()) {
    util::Status delivered = deliver_bundle_file(bundle, request.file_index);
    if (!delivered.ok()) return delivered.error();
  }
  update_gauges();
  reply.applied = true;
  reply.credit = credit_for_bytes(bundle.manifest.chunk_bytes);
  return reply.encode();
}

Result<Bytes> Service::chunk(const crypto::DistinguishedName& principal,
                             bool server_peer, Role role, util::ByteReader& r) {
  if (role_is_push(role)) {
    if (role == Role::kPush && !server_peer)
      return make_error(ErrorCode::kPermissionDenied,
                        "push requires a peer server certificate");
    if (role == Role::kClientPush && server_peer)
      return make_error(ErrorCode::kPermissionDenied,
                        "client push requires a user certificate");
    return bundle_push_chunk(principal, BundleChunkRequest::decode(r));
  }

  // Pull side: serve a chunk of an open outbound read.
  BundlePullChunkRequest request = BundlePullChunkRequest::decode(role, r);
  auto it = outgoing_bundles_.find(request.transfer_id);
  if (it == outgoing_bundles_.end())
    return make_error(ErrorCode::kNotFound,
                      "no such transfer (source restarted?)");
  OutgoingBundle& outgoing = it->second;
  if (request.file_index >= outgoing.blobs.size())
    return make_error(ErrorCode::kInvalidArgument,
                      "bundle file index out of range");
  const uspace::FileBlob& blob = *outgoing.blobs[request.file_index];
  if (request.index >= chunk_count(blob.size(), outgoing.chunk_bytes))
    return make_error(ErrorCode::kInvalidArgument, "chunk index out of range");
  touch_outgoing_bundle(outgoing);
  Chunk chunk = make_chunk(blob, request.index, outgoing.chunk_bytes);
  util::ByteWriter w;
  chunk.encode(w);
  return w.take();
}

Result<Bytes> Service::bundle_close(const crypto::DistinguishedName& principal,
                                    bool server_peer, Role role,
                                    util::ByteReader& r) {
  if (role_is_push(role)) {
    if (role == Role::kPush && !server_peer)
      return make_error(ErrorCode::kPermissionDenied,
                        "push requires a peer server certificate");
    if (role == Role::kClientPush && server_peer)
      return make_error(ErrorCode::kPermissionDenied,
                        "client push requires a user certificate");
    return bundle_close_push(principal, role, r);
  }
  BundleCloseRequest request = BundleCloseRequest::decode(role, r);
  if (auto it = outgoing_bundles_.find(request.transfer_id);
      it != outgoing_bundles_.end()) {
    if (it->second.expiry != 0) engine_.cancel(it->second.expiry);
    outgoing_bundles_.erase(it);
    update_gauges();
  }
  return Bytes{};  // idempotent: closing an unknown read is fine
}

Result<Bytes> Service::bundle_close_push(
    const crypto::DistinguishedName& principal, Role role,
    util::ByteReader& r) {
  BundleCloseRequest request = BundleCloseRequest::decode(role, r);
  if (completed_bundles_.count(request.key) != 0) return Bytes{};  // idempotent

  auto by_id = bundles_by_id_.find(request.transfer_id);
  IncomingBundle* bundle =
      by_id != bundles_by_id_.end() ? by_id->second : nullptr;
  if (bundle == nullptr) {
    auto by_key = bundles_.find(request.key);
    if (by_key != bundles_.end()) bundle = by_key->second.get();
  }
  if (bundle == nullptr)
    return make_error(ErrorCode::kNotFound,
                      "no such bundle (receiver restarted?)");
  if (bundle->manifest.principal != principal)
    return make_error(ErrorCode::kPermissionDenied,
                      "bundle belongs to another principal");

  // Retry files whose delivery failed earlier (complete assemblies).
  std::size_t delivered_count = 0;
  for (std::uint32_t i = 0; i < bundle->assemblies.size(); ++i) {
    if (!bundle->delivered[i] && bundle->assemblies[i].complete()) {
      util::Status status = deliver_bundle_file(*bundle, i);
      if (!status.ok()) return status.error();
    }
    if (bundle->delivered[i]) ++delivered_count;
  }
  if (delivered_count != bundle->delivered.size())
    return make_error(
        ErrorCode::kFailedPrecondition,
        "bundle incomplete: " + std::to_string(delivered_count) + "/" +
            std::to_string(bundle->delivered.size()) + " files");

  if (njs::Journal* journal = njs_.journal_for(bundle->manifest.token))
    journal_bundle_done(*journal, bundle->manifest);
  std::uint64_t bytes = 0;
  for (const BundleFileMeta& file : bundle->manifest.files)
    bytes += file.size;
  njs_.record_transfer_span(
      bundle->manifest.token, "xfer-bundle-in", bundle->opened_at,
      engine_.now(),
      {{"files", std::to_string(bundle->manifest.files.size())},
       {"bytes", std::to_string(bytes)},
       {"from", bundle->manifest.principal.common_name}});
  ++bundles_completed_;
  util::Bytes key = bundle->manifest.key;  // copy: erase frees `bundle`
  completed_bundles_.insert(key);
  bundles_by_id_.erase(bundle->id);
  bundles_.erase(key);
  update_gauges();
  return Bytes{};
}

void Service::touch_outgoing_bundle(OutgoingBundle& outgoing) {
  if (outgoing.expiry != 0) engine_.cancel(outgoing.expiry);
  std::uint64_t id = outgoing.id;
  outgoing.expiry = engine_.after(limits_.read_idle_timeout, [this, id] {
    outgoing_bundles_.erase(id);
    update_gauges();
  });
}

void Service::on_njs_crash() {
  // The process died: every in-memory table goes. The journal (a disk)
  // is what on_njs_recover rebuilds from.
  bundles_.clear();
  bundles_by_id_.clear();
  completed_bundles_.clear();
  for (auto& [id, outgoing] : outgoing_bundles_)
    if (outgoing.expiry != 0) engine_.cancel(outgoing.expiry);
  outgoing_bundles_.clear();
  update_gauges();
}

void Service::on_njs_recover() {
  for (njs::Journal* journal : njs_.all_journals()) fold_journal(*journal);
}

void Service::on_njs_adopt(const njs::Journal& journal) {
  fold_journal(journal);
}

void Service::fold_journal(const njs::Journal& journal) {
  for (util::Bytes& key : completed_bundle_keys(journal))
    completed_bundles_.insert(std::move(key));
  for (RecoveredBundle& recovered : recover_bundles(journal)) {
    // Already live here (adopt fold beside open bundles) — keep it.
    if (bundles_.count(recovered.manifest.key) != 0) continue;
    // The target job must have survived recovery too.
    if (!njs_.owner(recovered.manifest.token).ok()) continue;
    auto bundle = std::make_unique<IncomingBundle>();
    bundle->assemblies.reserve(recovered.manifest.files.size());
    for (const BundleFileMeta& meta : recovered.manifest.files) {
      Assembly assembly(meta.size, meta.checksum, meta.synthetic,
                        recovered.manifest.chunk_bytes);
      if (store_ != nullptr) assembly.attach_store(store_);
      bundle->assemblies.push_back(std::move(assembly));
    }
    bundle->delivered.assign(recovered.manifest.files.size(), false);
    bundle->manifest = std::move(recovered.manifest);
    bundle->id = next_id_++;  // fresh id, senders re-open by key
    bundle->opened_at = engine_.now();
    for (auto& [file_index, chunk] : recovered.chunks) {
      if (file_index >= bundle->assemblies.size()) continue;
      // Already verified and journaled; re-journaling would double the
      // log, so fold straight into the assembly.
      bundle->assemblies[file_index].accept(chunk);
    }
    // Files whose last chunk landed before the crash re-deliver into
    // the (durable) workspace — idempotent, same file content.
    for (std::uint32_t i = 0; i < bundle->assemblies.size(); ++i)
      if (bundle->assemblies[i].complete())
        (void)deliver_bundle_file(*bundle, i);
    bundles_by_id_[bundle->id] = bundle.get();
    bundles_.emplace(bundle->manifest.key, std::move(bundle));
    ++bundles_recovered_;
    njs_.metrics()
        ->counter("unicore_xfer_recovered_bundles_total",
                  {{"usite", njs_.usite()}})
        .increment();
  }
  update_gauges();
}

}  // namespace unicore::xfer
