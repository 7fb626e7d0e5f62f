// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the single hash primitive of the security architecture:
// certificate fingerprints and signatures, HMAC record protection and
// key derivation, and content checksums for staged files.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace unicore::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  Sha256& update(util::ByteView data);
  Sha256& update(std::string_view s) {
    return update(util::ByteView(reinterpret_cast<const std::uint8_t*>(s.data()),
                                 s.size()));
  }

  /// Finishes the hash; the context must not be reused afterwards.
  Digest finish();

 private:
  // HMAC keys save the chaining values after their pad blocks and
  // resume from them.
  friend class HmacKey;
  friend class HmacSha256;
  using State = std::array<std::uint32_t, 8>;
  /// Resumes after one whole 64-byte block that left chaining value
  /// `state`.
  explicit Sha256(const State& state) : state_(state), total_bits_(512) {}

  void process_block(const std::uint8_t* block);

  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// One-shot convenience.
Digest sha256(util::ByteView data);
Digest sha256(std::string_view s);

/// True when the process selected a hardware (SHA-NI) compression path at
/// startup. Both paths produce bit-identical digests; this only reports
/// which one is active.
bool sha256_hardware_accelerated();

/// Forces the portable SHA-256 and AES paths (false) or re-runs hardware
/// detection (true) for both. Exists so tests can cross-check every
/// backend on the same machine; not thread-safe against concurrent
/// hashing or encryption.
void set_crypto_acceleration(bool enabled);

/// Digest as a Bytes value (for wire formats).
util::Bytes digest_bytes(const Digest& d);

/// First 8 bytes of the digest as a big-endian integer; used as the
/// to-be-signed representative in the toy RSA scheme.
std::uint64_t digest_prefix64(const Digest& d);

}  // namespace unicore::crypto
