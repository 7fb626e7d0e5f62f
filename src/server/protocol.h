// The UNICORE high-level protocol (§5.3): "a client-server type of
// communication. JPA/JMC act as client while NJS (resp. the gateway)
// acts as both client and server depending on the partner. ... It is an
// asynchronous protocol."
//
// Message envelopes over a SecureChannel:
//   kRequest      u8 | kind u8 | request_id u64 | payload
//   kReply        u8 | request_id u64 | ok u8 | payload-or-error
//   kNotification u8 | job token u64 | Outcome      (server -> client push
//                                                    for forwarded jobs)
//   kTokenRequest u8 | kind u8 | request_id u64 | token blob | payload
//                 (portal facade: the bearer token selects the identity
//                  instead of the channel's peer certificate)
//
// Every kind below is part of the v3 channel baseline (docs/PROTOCOL.md):
// no kind is negotiated, and a retired number is never reused.
#pragma once

#include <cstdint>
#include <string>

#include "ajo/job.h"
#include "ajo/outcome.h"
#include "ajo/services.h"
#include "gateway/gateway.h"
#include "njs/njs.h"
#include "njs/peer_link.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::server {

enum class MessageType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
  kNotification = 3,
  kTokenRequest = 4,  // kRequest with a leading session-token blob
};

enum class RequestKind : std::uint8_t {
  kConsign = 1,        // JPA: SignedAjo
  kQuery = 2,          // JMC: token + detail
  kList = 3,           // JMC
  kControl = 4,        // JMC: token + command
  // 5 was kFetchOutput (whole-file output download), retired: outputs
  // travel as bundles of one over the transfer kinds below.
  kResourcePages = 6,  // JPA: resource info for the Usite's Vsites
  kGetBundle = 7,      // "applet" download: bundle name
  kForwardConsign = 8, // peer NJS: ForwardedConsignment
  kDeliverFile = 9,    // peer NJS: token + name + blob
  // 10 was kFetchFile (whole-file peer fetch), retired likewise.
  kPeerControl = 11,   // peer NJS: token + command
  kMonitorMetrics = 12,  // MonitorService: Usite metrics snapshot
  kMonitorTrace = 13,    // MonitorService: token -> job trace timeline
  kJournalInspect = 14,  // recovery diagnostics: NJS journal stats
  // 15 and 17 were the retired single-file transfer open/close; never
  // reuse them. kXferChunk belongs to the transfer family below.
  kXferChunk = 16,  // one chunk (push) or one chunk request (pull), each
                    // tagged with its in-bundle file index
  // Portal facade (docs/PORTAL.md). kSessionOpen authenticates the
  // channel's peer certificate (the one full- or resumed-handshake
  // contact) and mints a bearer token; the other five normally ride the
  // kTokenRequest envelope.
  kSessionOpen = 18,     // ttl request -> token + expiry + login
  kSessionRefresh = 19,  // envelope token -> extended expiry
  kSessionClose = 20,    // envelope token -> explicit logout
  kStorageList = 21,     // caller's per-job working storages
  kStorageFiles = 22,    // job token -> names in that job's storage
  kStorageReap = 23,     // job token -> empty the storage, free quota
  // The chunked transfer engine (src/xfer/, docs/DATA.md §3): one open
  // carries the manifests of up to xfer::kMaxBundleFiles files — a
  // single file is a bundle of one; their chunks interleave over
  // kXferChunk frames; one close commits the lot. Bodies start with a
  // xfer::Role byte that selects the authentication path (push / peer
  // pull: server certificate; client pull / client push: user
  // certificate).
  kXferBundleOpen = 24,   // open or resume a bundle by durable key
  kXferBundleClose = 25,  // commit (push) / release (pull) the bundle
};

const char* request_kind_name(RequestKind kind);

/// Peer file movement by wire path: batches through the chunked engine
/// (src/xfer/), or a single small push as one whole-blob kDeliverFile.
struct TransferStats {
  std::uint64_t bundled = 0;
  std::uint64_t whole_blob = 0;
};

// --- envelope builders ---------------------------------------------------

util::Bytes make_request(RequestKind kind, std::uint64_t request_id,
                         util::ByteView payload);
/// A request authenticated by a gateway-issued session token instead of
/// the channel's peer certificate (portal facade).
util::Bytes make_token_request(RequestKind kind, std::uint64_t request_id,
                               util::ByteView token, util::ByteView payload);
util::Bytes make_ok_reply(std::uint64_t request_id, util::ByteView payload);
util::Bytes make_error_reply(std::uint64_t request_id,
                             const util::Error& error);
util::Bytes make_notification(std::uint64_t job_token,
                              const ajo::Outcome& outcome);

// --- payload codecs --------------------------------------------------------

void encode_user(util::ByteWriter& w, const gateway::AuthenticatedUser& user);
gateway::AuthenticatedUser decode_user(util::ByteReader& r);

util::Bytes encode_forwarded(const njs::ForwardedConsignment& consignment);
util::Result<njs::ForwardedConsignment> decode_forwarded(
    util::ByteReader& r);

void encode_error(util::ByteWriter& w, const util::Error& error);
util::Error decode_error(util::ByteReader& r);

}  // namespace unicore::server
