// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the single hash primitive of the security architecture:
// certificate fingerprints and signatures, HMAC record protection, the
// CTR keystream, and content checksums for staged files.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

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
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

/// One-shot convenience.
Digest sha256(util::ByteView data);
Digest sha256(std::string_view s);

/// Number of independent blocks sha256_single_blocks() hashes per call.
/// Two SHA-NI lanes hide most of the sha256rnds2 latency of one; with
/// three or four the lanes' message schedules spill out of the 16 XMM
/// registers, and they measured no faster on bulk keystream and slower
/// on short records (EXPERIMENTS.md, "Substrate microbenchmarks").
inline constexpr std::size_t kSha256Lanes = 2;

/// Digests of kSha256Lanes independent messages, each exactly one
/// pre-padded compression block: every 64-byte block in `blocks` must
/// already carry the 0x80 terminator and the 64-bit length in its last
/// 8 bytes. Digest i goes to bytes [32i, 32i + 32) of `digests`. The
/// hardware path runs the lanes' compressions interleaved in one pass;
/// the CTR keystream kernel patches counters into copies of a fixed
/// template block and calls this once per kSha256Lanes keystream blocks.
void sha256_single_blocks(
    std::span<const std::uint8_t, kSha256Lanes * 64> blocks,
    std::span<std::uint8_t, kSha256Lanes * 32> digests);

/// True when the process selected a hardware (SHA-NI) compression path at
/// startup. Both paths produce bit-identical digests; this only reports
/// which one is active (benchmarks record it in their context).
bool sha256_hardware_accelerated();

/// Forces the portable compression paths (false) or re-runs hardware
/// detection (true), for sha256_single_blocks() as for the rest. Exists
/// so tests can cross-check both backends on the same machine; not
/// thread-safe against concurrent hashing.
void set_sha256_acceleration(bool enabled);

/// Digest as a Bytes value (for wire formats).
util::Bytes digest_bytes(const Digest& d);

/// First 8 bytes of the digest as a big-endian integer; used as the
/// to-be-signed representative in the toy RSA scheme.
std::uint64_t digest_prefix64(const Digest& d);

}  // namespace unicore::crypto
