// Symmetric record protection for the SecureChannel.
//
// The keystream is SHA-256 in counter mode over (key || nonce || counter)
// — a standard hash-CTR construction. seal()/open() provide
// encrypt-then-MAC authenticated encryption: ciphertext is XOR with the
// keystream, the tag is HMAC-SHA256 over (nonce || ciphertext || aad).
#pragma once

#include <cstdint>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace unicore::crypto {

/// Symmetric key (32 bytes of HKDF output).
struct SymmetricKey {
  util::Bytes material;  // 32 bytes
};

/// XORs `data` with the hash-CTR keystream for (key, nonce). Applying it
/// twice with the same parameters restores the plaintext.
util::Bytes ctr_crypt(const SymmetricKey& key, std::uint64_t nonce,
                      util::ByteView data);

/// In-place variant — the record-layer hot path. For the standard
/// 32-byte keys each keystream block is one pre-padded SHA-256
/// compression with only the counter bytes patched, and
/// crypto::kSha256Lanes consecutive counter blocks are hashed side by
/// side in one sha256_single_blocks() call: no allocation and no
/// per-block input assembly.
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
