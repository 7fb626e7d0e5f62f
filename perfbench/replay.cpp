// The per-layer ledger. After a traced round, each layer's share of
// that round is replayed, in workload order and on the inputs the round
// produced, through the layer's public functions, and timed from
// outside. Nothing inside src/ is instrumented.
//
// The replays are built so their times do not overlap: the gateway's
// time excludes the public-key calls it makes (counted under
// crypto.pk_busy_s), and the store's time excludes the chunk hashing it
// does (counted under crypto.sha_busy_s).
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "ajo/codec.h"
#include "batch/subsystem.h"
#include "bench.h"
#include "crypto/cipher.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "gateway/auth_cache.h"
#include "gateway/gateway.h"
#include "gateway/session_broker.h"
#include "njs/incarnation.h"
#include "store/chunk_store.h"
#include "util/rng.h"
#include "xfer/wire.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kChunkBytes = 1024 * 1024;

/// Keeps replay results observable so the optimiser cannot drop them.
volatile std::uint64_t g_sink = 0;
void keep(std::uint64_t value) { g_sink = g_sink + value; }

/// Runs `fn`, records it as span `name` and returns its wall seconds.
double timed(Tracer& tracer, const std::string& name,
             const std::function<void()>& fn) {
  double start = cpu_now();
  fn();
  double end = cpu_now();
  tracer.add(name, start, end);
  return end - start;
}

}  // namespace

std::map<std::string, double> replay_layers(const Recording& rec,
                                            const RoundResult& round,
                                            Tracer& tracer) {
  std::map<std::string, double> out;
  auto count = [&round](const char* name) {
    auto it = round.counts.find(name);
    return it == round.counts.end() ? 0.0 : it->second;
  };
  crypto::ValidationOptions validation;
  validation.now = rec.now_epoch;

  // --- ajo codec: canonical encode + decode of every consigned AJO -----
  std::vector<util::Bytes> encoded(rec.consigns.size());
  double codec_encode = timed(tracer, "replay.ajo.encode", [&] {
    for (std::size_t i = 0; i < rec.consigns.size(); ++i)
      encoded[i] = ajo::encode_action(rec.consigns[i].job);
  });
  double codec_decode = timed(tracer, "replay.ajo.decode", [&] {
    for (const util::Bytes& bytes : encoded) {
      auto decoded = ajo::decode_action(bytes);
      keep(decoded ? 1 : 0);
    }
  });
  out["ajo.codec_busy_s"] = codec_encode + codec_decode;

  // --- crypto public key: client signatures, gateway verification and
  // chain validation on both sides of every full handshake. Consigns
  // that ride a bearer token are unsigned. --------------------------
  std::size_t signed_count =
      rec.token_requests.empty() ? rec.consigns.size() : 0;
  std::vector<crypto::Signature> signatures(signed_count);
  double pk_sign = timed(tracer, "replay.crypto.sign", [&] {
    for (std::size_t i = 0; i < signed_count; ++i)
      signatures[i] = crypto::sign_message(
          rec.users[rec.consigns[i].user].key, encoded[i]);
  });
  double pk_verify = timed(tracer, "replay.crypto.verify", [&] {
    for (std::size_t i = 0; i < signed_count; ++i) {
      const crypto::Credential& user = rec.users[rec.consigns[i].user];
      keep(crypto::verify_message(user.certificate.subject_key, encoded[i],
                                  signatures[i]));
    }
  });
  double pk_validate_users = timed(tracer, "replay.crypto.validate_user", [&] {
    for (std::size_t user : rec.handshakes)
      keep(rec.trust->validate(rec.users[user].certificate, {}, validation)
               .ok());
  });
  double pk_validate_server =
      timed(tracer, "replay.crypto.validate_server", [&] {
        for (std::size_t i = 0; i < rec.handshakes.size(); ++i)
          keep(rec.trust->validate(rec.server_certificate, {}, validation)
                   .ok());
      });
  out["crypto.pk_busy_s"] =
      pk_sign + pk_verify + pk_validate_users + pk_validate_server;

  // --- gateway: certificate authentication per full handshake, the
  // consignment check per signed AJO, the token fast path per portal
  // request; a fresh auth cache so misses are paid as in the round -----
  gateway::Gateway gateway(rec.usite, rec.trust, rec.uudb,
                           std::make_shared<gateway::ShardedAuthCache>());
  std::vector<ajo::SignedAjo> signed_ajos;
  signed_ajos.reserve(signed_count);
  for (std::size_t i = 0; i < signed_count; ++i)
    signed_ajos.push_back({rec.consigns[i].job,
                           rec.users[rec.consigns[i].user].certificate,
                           signatures[i]});
  double gateway_inclusive =
      timed(tracer, "replay.gateway.authenticate", [&] {
        for (std::size_t user : rec.handshakes)
          keep(gateway
                   .authenticate_user(rec.users[user].certificate,
                                      rec.now_epoch)
                   .ok());
      });
  gateway_inclusive += timed(tracer, "replay.gateway.consign", [&] {
    for (const ajo::SignedAjo& signed_ajo : signed_ajos)
      keep(gateway.check_consignment(signed_ajo, rec.now_epoch).ok());
  });
  util::Rng rng(7);
  gateway::SessionBroker broker(gateway, rng);
  std::vector<util::Bytes> tokens(rec.users.size());
  if (!rec.token_requests.empty())
    for (std::size_t user = 0; user < rec.users.size(); ++user) {
      auto grant = broker.open(rec.users[user].certificate, rec.now_epoch);
      if (grant) tokens[user] = grant.value().token;
    }
  gateway_inclusive += timed(tracer, "replay.gateway.token", [&] {
    for (std::size_t user : rec.token_requests)
      keep(broker.authenticate(tokens[user], rec.now_epoch).ok());
  });
  out["gateway.busy_s"] =
      std::max(0.0, gateway_inclusive - pk_validate_users - pk_verify);
  double requests = count("server.requests");
  out["gateway.cpu_us_per_msg"] =
      requests > 0 ? gateway_inclusive * 1e6 / requests : 0;

  // --- njs incarnation, then the batch tier on a private engine at the
  // recorded submit times -------------------------------------------
  std::vector<std::optional<njs::IncarnatedJob>> incarnated(
      rec.batch_tasks.size());
  out["njs.incarnation_busy_s"] = timed(tracer, "replay.njs.incarnate", [&] {
    for (std::size_t i = 0; i < rec.batch_tasks.size(); ++i) {
      const Recording::BatchTask& task = rec.batch_tasks[i];
      auto result = njs::incarnate(
          static_cast<const ajo::AbstractTaskObject&>(*task.task), task.system,
          njs::default_translation_table(task.system.architecture),
          task.account);
      if (result) incarnated[i] = std::move(result.value());
    }
  });
  double consigns = count("njs.consigns");
  out["njs.cpu_us_per_consign"] =
      consigns > 0
          ? (codec_decode + out["njs.incarnation_busy_s"]) * 1e6 / consigns
          : 0;

  out["batch.busy_s"] = timed(tracer, "replay.batch", [&] {
    sim::Engine engine;
    std::map<std::string, std::unique_ptr<batch::BatchSubsystem>> systems;
    for (std::size_t i = 0; i < rec.batch_tasks.size(); ++i) {
      if (!incarnated[i]) continue;
      const Recording::BatchTask& task = rec.batch_tasks[i];
      auto& subsystem = systems[task.system.vsite];
      if (!subsystem)
        subsystem = std::make_unique<batch::BatchSubsystem>(
            engine, util::Rng(systems.size()), task.system);
      engine.at(task.submitted_at, [target = subsystem.get(),
                                    job = &*incarnated[i]] {
        auto id = target->submit(
            job->script, "bench", job->spec,
            [](batch::BatchJobId, const batch::BatchResult&) { keep(1); });
        keep(id ? 1 : 0);
      });
    }
    engine.run();
  });

  // --- sim kernel: the round's event count through a private engine,
  // as self-rescheduling chains so the heap stays small as in the round.
  out["sim.busy_s"] = timed(tracer, "replay.sim", [&] {
    sim::Engine engine;
    std::uint64_t remaining = rec.engine_events;
    constexpr std::size_t kChains = 256;
    std::function<void(std::size_t)> tick = [&](std::size_t chain) {
      if (remaining == 0) return;
      --remaining;
      engine.after(static_cast<sim::Time>(1 + (chain * 7919) % 997),
                   [&tick, chain] { tick(chain); });
    };
    for (std::size_t chain = 0; chain < kChains && remaining > 0; ++chain)
      engine.after(0, [&tick, chain] { tick(chain); });
    engine.run();
  });

  // --- net record pipeline: seal + open of every message of the round,
  // at the round's mean message size ----------------------------------
  double messages = count("net.messages_sent");
  double bytes = count("net.bytes_sent");
  out["net.record_busy_s"] = timed(tracer, "replay.net.record", [&] {
    if (messages < 1) return;
    crypto::SymmetricKey enc{util::Bytes(32, 0x11)};
    crypto::SymmetricKey mac{util::Bytes(32, 0x22)};
    auto size = static_cast<std::size_t>(bytes / messages);
    util::Bytes record(size, 0x5a);
    util::Bytes aad(13, 0x01);
    auto n = static_cast<std::uint64_t>(messages);
    for (std::uint64_t seq = 0; seq < n; ++seq) {
      crypto::Digest tag = crypto::seal_inplace(enc, mac, seq, record, aad);
      keep(crypto::open_inplace(enc, mac, seq, record, tag, aad).ok());
    }
  });

  // --- payload: one digest pass per staged chunk plus file checksums,
  // the chunk wire codec for every chunk that moved, store interning ---
  std::vector<crypto::Digest> checksums(rec.payloads.size());
  double sha_chunks = timed(tracer, "replay.crypto.sha_chunks", [&] {
    for (const Recording::Payload& payload : rec.payloads) {
      const util::Bytes& data = *payload.bytes;
      for (std::size_t offset = 0; offset < data.size();
           offset += kChunkBytes) {
        std::size_t length = std::min<std::size_t>(kChunkBytes,
                                                   data.size() - offset);
        crypto::Digest digest =
            crypto::sha256(util::ByteView(data.data() + offset, length));
        keep(digest[0]);
      }
    }
  });
  double sha_files = timed(tracer, "replay.crypto.sha_files", [&] {
    for (std::size_t i = 0; i < rec.payloads.size(); ++i)
      checksums[i] = crypto::sha256(util::ByteView(*rec.payloads[i].bytes));
  });
  out["crypto.sha_busy_s"] = sha_chunks + sha_files;
  out["xfer.codec_busy_s"] = timed(tracer, "replay.xfer.codec", [&] {
    auto round_trip = [](const xfer::Chunk& chunk) {
      util::ByteWriter writer;
      chunk.encode(writer);
      util::Bytes wire = writer.take();
      util::ByteReader reader{wire};
      xfer::Chunk decoded = xfer::Chunk::decode(reader);
      keep(decoded.length);
    };
    for (const Recording::Payload& payload : rec.payloads) {
      if (!payload.moved) continue;
      const util::Bytes& data = *payload.bytes;
      for (std::size_t offset = 0, index = 0; offset < data.size();
           offset += kChunkBytes, ++index) {
        std::size_t length = std::min<std::size_t>(kChunkBytes,
                                                   data.size() - offset);
        xfer::Chunk chunk;
        chunk.index = index;
        chunk.length = static_cast<std::uint32_t>(length);
        chunk.data.assign(data.begin() + static_cast<std::ptrdiff_t>(offset),
                          data.begin() +
                              static_cast<std::ptrdiff_t>(offset + length));
        round_trip(chunk);
      }
    }
    for (std::uint64_t i = 0; i < rec.synthetic_chunks; ++i) {
      xfer::Chunk chunk;
      chunk.index = i;
      chunk.length = kChunkBytes;
      chunk.synthetic = true;
      round_trip(chunk);
    }
  });
  double intern = timed(tracer, "replay.store.intern", [&] {
    auto chunk_store = std::make_shared<store::ChunkStore>();
    std::vector<std::shared_ptr<const store::PinnedBlob>> pins;
    for (std::size_t i = 0; i < rec.payloads.size(); ++i) {
      auto pinned = store::intern_bytes(chunk_store, *rec.payloads[i].bytes,
                                        checksums[i], kChunkBytes);
      if (pinned) pins.push_back(std::move(pinned.value()));
    }
    keep(pins.size());
  });
  // Interning hashes each chunk once; that pass is in crypto.sha_busy_s.
  out["store.intern_busy_s"] = std::max(0.0, intern - sha_chunks);
  return out;
}

}  // namespace perfbench
