// AES-256 (FIPS 197), implemented from scratch, and its counter-mode
// keystream: the block cipher of the record layer.
//
// Two backends produce identical output and are chosen at startup by
// CPUID, like SHA-256's: AES-NI, whose bulk loop runs 8 independent
// blocks per step, and a portable table implementation, which every
// non-x86 build and every CPU without AES-NI uses. The table lookups
// are indexed by key- and data-dependent bytes, so the portable path is
// not constant-time (docs/SECURITY.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace unicore::crypto {

/// An expanded AES-256 encryption key: the 15 round keys of FIPS-197
/// KeyExpansion, in its byte order. Both backends read this one layout.
struct Aes256Key {
  alignas(16) std::array<std::uint8_t, 15 * 16> round_keys{};
};

/// FIPS-197 KeyExpansion of a 32-byte key.
Aes256Key aes256_expand_key(std::span<const std::uint8_t, 32> key);

/// FIPS-197 Cipher: encrypts one 16-byte block.
void aes256_encrypt_block(const Aes256Key& key,
                          std::span<const std::uint8_t, 16> in,
                          std::span<std::uint8_t, 16> out);

/// data[0, size) ^= the AES-256-CTR keystream for `nonce`: keystream
/// block i is E(key, BE64(nonce) || BE64(i)), i counting from 0, and the
/// last block is cut to the data. Applying it twice restores the data.
/// No state crosses calls: pool threads may run it concurrently.
void aes256_ctr_xor(const Aes256Key& key, std::uint64_t nonce,
                    std::uint8_t* data, std::size_t size);

/// True when the process selected the AES-NI backend.
bool aes_hardware_accelerated();

namespace detail {
/// Backend selection behind set_crypto_acceleration() (sha256.h).
void select_aes_backend(bool allow_hardware);
}  // namespace detail

}  // namespace unicore::crypto
