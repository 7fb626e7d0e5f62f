// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HMAC protects the record layer of the SecureChannel and confirms its
// handshakes; HKDF derives the per-direction session keys from the
// Diffie–Hellman shared secret during the SSL-style handshake.
#pragma once

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace unicore::crypto {

/// An HMAC-SHA256 key as the SHA-256 chaining values after its ipad and
/// opad blocks. A MAC under it resumes from the two saved states instead
/// of hashing both pad blocks again — two of the four compressions of a
/// short MAC. Immutable once built, so threads may share one.
class HmacKey {
 public:
  /// Placeholder for a key assigned before use.
  HmacKey() = default;
  /// Any key length; keys longer than a block are hashed first.
  explicit HmacKey(util::ByteView key);

 private:
  friend class HmacSha256;
  Sha256::State inner_{};
  Sha256::State outer_{};
};

/// HMAC-SHA256 over `data` with `key` (any key length).
Digest hmac_sha256(util::ByteView key, util::ByteView data);

/// HMAC-SHA256 over `data` under a precomputed key.
Digest hmac_sha256(const HmacKey& key, util::ByteView data);

/// Incremental HMAC-SHA256: streams large inputs (record-layer MACs over
/// multi-megabyte transfer chunks) without assembling the whole message
/// in one buffer first.
class HmacSha256 {
 public:
  explicit HmacSha256(const HmacKey& key)
      : inner_(Sha256(key.inner_)), outer_(Sha256(key.outer_)) {}

  HmacSha256& update(util::ByteView data) {
    inner_.update(data);
    return *this;
  }

  /// Finishes the MAC; the context must not be reused afterwards.
  Digest finish() { return outer_.update(inner_.finish()).finish(); }

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(util::ByteView salt, util::ByteView ikm);

/// HKDF-Expand: derives `length` bytes of key material bound to `info`.
/// length must be <= 255 * 32.
util::Bytes hkdf_expand(const Digest& prk, util::ByteView info,
                        std::size_t length);

}  // namespace unicore::crypto
