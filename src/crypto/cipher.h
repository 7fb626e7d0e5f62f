// Symmetric record protection for the SecureChannel.
//
// Records are encrypted with AES-256 in counter mode (crypto/aes.h) and
// authenticated encrypt-then-MAC: the tag is HMAC-SHA256 over
// (nonce || ciphertext || aad). Each SymmetricKey carries its AES round
// keys and HMAC pad states, computed once when the key is made, so a
// record pays for neither.
#pragma once

#include <cstdint>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::crypto {

/// Symmetric key (32 bytes of HKDF output) with its per-key state: the
/// expanded AES-256 key for use as a cipher key and the HMAC key for use
/// as a MAC key. Immutable after construction, so the record pool's
/// workers share one const key without synchronisation.
class SymmetricKey {
 public:
  /// Placeholder; a channel assigns derived keys before its first record.
  SymmetricKey() = default;
  /// Throws std::invalid_argument unless `material` is 32 bytes.
  explicit SymmetricKey(util::ByteView material);

  const Aes256Key& cipher() const { return cipher_; }
  const HmacKey& mac() const { return mac_; }

 private:
  Aes256Key cipher_;
  HmacKey mac_;
};

/// XORs `data` with the AES-256-CTR keystream for (key, nonce). Applying
/// it twice with the same parameters restores the plaintext.
util::Bytes ctr_crypt(const SymmetricKey& key, std::uint64_t nonce,
                      util::ByteView data);

/// In-place variant — the record-layer hot path: no allocation, the
/// keystream is XORed straight over `data`.
void ctr_crypt_inplace(const SymmetricKey& key, std::uint64_t nonce,
                       std::uint8_t* data, std::size_t size);

/// Sealed (encrypted + authenticated) record.
struct SealedRecord {
  std::uint64_t nonce = 0;
  util::Bytes ciphertext;
  Digest tag{};
};

/// Encrypt-then-MAC. `aad` is authenticated but not encrypted (used for
/// record headers / sequence numbers).
SealedRecord seal(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                  std::uint64_t nonce, util::ByteView plaintext,
                  util::ByteView aad);

/// Verifies the tag (constant-time) and decrypts. Fails with
/// kAuthenticationFailed on any mismatch.
util::Result<util::Bytes> open(const SymmetricKey& enc_key,
                               const SymmetricKey& mac_key,
                               const SealedRecord& record, util::ByteView aad);

/// Mutable view over a slice of an existing buffer. The vectored record
/// path seals/opens records through views like this — slices of one
/// batch frame or of a caller's payload — so the kernels never require
/// the record to own its memory.
using MutableByteView = std::span<std::uint8_t>;

/// Copy-free seal: encrypts `data` in place (plaintext -> ciphertext)
/// and returns the tag over (nonce || ciphertext || aad).
Digest seal_inplace(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                    std::uint64_t nonce, util::Bytes& data,
                    util::ByteView aad);

/// Vectored variant: the record is a view into a larger buffer (e.g. one
/// record of a coalesced batch frame, or a fragment slice of a large
/// payload). Byte-identical output to the owning overload.
Digest seal_inplace(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                    std::uint64_t nonce, MutableByteView data,
                    util::ByteView aad);

/// Copy-free open: verifies `tag` (constant-time) and decrypts `data` in
/// place (ciphertext -> plaintext). On failure `data` is left encrypted.
util::Status open_inplace(const SymmetricKey& enc_key,
                          const SymmetricKey& mac_key, std::uint64_t nonce,
                          util::Bytes& data, const Digest& tag,
                          util::ByteView aad);

/// Vectored variant of open_inplace (see the seal counterpart).
util::Status open_inplace(const SymmetricKey& enc_key,
                          const SymmetricKey& mac_key, std::uint64_t nonce,
                          MutableByteView data, const Digest& tag,
                          util::ByteView aad);

}  // namespace unicore::crypto
