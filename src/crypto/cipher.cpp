#include "crypto/cipher.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/hmac.h"

namespace unicore::crypto {

namespace {

/// Generic keystream for non-standard key lengths (kept for tests that
/// exercise odd keys); assembles (key || nonce || counter) per block.
void ctr_crypt_generic(const SymmetricKey& key, std::uint64_t nonce,
                       std::uint8_t* data, std::size_t size) {
  std::uint64_t counter = 0;
  std::size_t pos = 0;
  while (pos < size) {
    util::ByteWriter block_input;
    block_input.raw(key.material);
    block_input.u64(nonce);
    block_input.u64(counter++);
    Digest stream = sha256(block_input.bytes());
    std::size_t take = std::min<std::size_t>(stream.size(), size - pos);
    for (std::size_t i = 0; i < take; ++i) data[pos + i] ^= stream[i];
    pos += take;
  }
}

void store_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

/// data[0, n) ^= stream[0, n): 16 bytes per step through two 64-bit
/// words (memcpy keeps unaligned record slices well-defined), then a
/// byte tail.
void xor_into(std::uint8_t* data, const std::uint8_t* stream, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    std::uint64_t d[2], k[2];
    std::memcpy(d, data + i, 16);
    std::memcpy(k, stream + i, 16);
    d[0] ^= k[0];
    d[1] ^= k[1];
    std::memcpy(data + i, d, 16);
  }
  for (; i < n; ++i) data[i] ^= stream[i];
}

std::size_t put_varint(std::uint8_t* out, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Tag over (nonce || blob(ciphertext) || blob(aad)) — the same bytes
/// the original one-shot HMAC consumed, streamed so multi-megabyte
/// transfer chunks are never copied into a MAC input buffer.
Digest record_tag(const SymmetricKey& mac_key, std::uint64_t nonce,
                  util::ByteView ciphertext, util::ByteView aad) {
  HmacSha256 mac(mac_key.material);
  std::uint8_t header[18];  // 8-byte nonce + worst-case varint
  store_be64(header, nonce);
  std::size_t n = 8 + put_varint(header + 8, ciphertext.size());
  mac.update(util::ByteView(header, n));
  mac.update(ciphertext);
  std::uint8_t aad_len[10];
  mac.update(util::ByteView(aad_len, put_varint(aad_len, aad.size())));
  mac.update(aad);
  return mac.finish();
}

}  // namespace

void ctr_crypt_inplace(const SymmetricKey& key, std::uint64_t nonce,
                       std::uint8_t* data, std::size_t size) {
  if (key.material.size() != 32)
    return ctr_crypt_generic(key, nonce, data, size);
  // One pre-padded compression block per lane: key(32) || nonce(8) ||
  // counter(8) || 0x80 || zeros || 384 as the 64-bit bit length.
  // Identical bytes to what Sha256 would feed its compression for the
  // 48-byte message, so the keystream matches the generic path exactly.
  std::array<std::uint8_t, kSha256Lanes * 64> blocks{};
  std::memcpy(blocks.data(), key.material.data(), 32);
  store_be64(blocks.data() + 32, nonce);
  blocks[48] = 0x80;
  blocks[62] = 0x01;  // 48 * 8 = 384 = 0x0180 bits
  blocks[63] = 0x80;
  for (std::size_t l = 1; l < kSha256Lanes; ++l)
    std::memcpy(blocks.data() + 64 * l, blocks.data(), 64);

  // Each step hashes counters [counter, counter + kSha256Lanes) in one
  // call and XORs their 32-byte outputs over the next stretch of data.
  constexpr std::size_t kStep = kSha256Lanes * 32;
  std::array<std::uint8_t, kStep> stream;
  std::uint64_t counter = 0;
  for (std::size_t pos = 0; pos < size; pos += kStep) {
    for (std::size_t l = 0; l < kSha256Lanes; ++l)
      store_be64(blocks.data() + 64 * l + 40, counter++);
    sha256_single_blocks(blocks, stream);
    xor_into(data + pos, stream.data(), std::min(kStep, size - pos));
  }
}

util::Bytes ctr_crypt(const SymmetricKey& key, std::uint64_t nonce,
                      util::ByteView data) {
  util::Bytes out(data.begin(), data.end());
  ctr_crypt_inplace(key, nonce, out.data(), out.size());
  return out;
}

Digest seal_inplace(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                    std::uint64_t nonce, MutableByteView data,
                    util::ByteView aad) {
  ctr_crypt_inplace(enc_key, nonce, data.data(), data.size());
  return record_tag(mac_key, nonce, util::ByteView(data.data(), data.size()),
                    aad);
}

Digest seal_inplace(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                    std::uint64_t nonce, util::Bytes& data,
                    util::ByteView aad) {
  return seal_inplace(enc_key, mac_key, nonce,
                      MutableByteView(data.data(), data.size()), aad);
}

util::Status open_inplace(const SymmetricKey& enc_key,
                          const SymmetricKey& mac_key, std::uint64_t nonce,
                          MutableByteView data, const Digest& tag,
                          util::ByteView aad) {
  Digest expected = record_tag(
      mac_key, nonce, util::ByteView(data.data(), data.size()), aad);
  if (!util::constant_time_equal(expected, tag))
    return util::make_error(util::ErrorCode::kAuthenticationFailed,
                            "record MAC verification failed");
  ctr_crypt_inplace(enc_key, nonce, data.data(), data.size());
  return util::Status::ok_status();
}

util::Status open_inplace(const SymmetricKey& enc_key,
                          const SymmetricKey& mac_key, std::uint64_t nonce,
                          util::Bytes& data, const Digest& tag,
                          util::ByteView aad) {
  return open_inplace(enc_key, mac_key, nonce,
                      MutableByteView(data.data(), data.size()), tag, aad);
}

SealedRecord seal(const SymmetricKey& enc_key, const SymmetricKey& mac_key,
                  std::uint64_t nonce, util::ByteView plaintext,
                  util::ByteView aad) {
  SealedRecord record;
  record.nonce = nonce;
  record.ciphertext.assign(plaintext.begin(), plaintext.end());
  record.tag = seal_inplace(enc_key, mac_key, nonce, record.ciphertext, aad);
  return record;
}

util::Result<util::Bytes> open(const SymmetricKey& enc_key,
                               const SymmetricKey& mac_key,
                               const SealedRecord& record,
                               util::ByteView aad) {
  util::Bytes data = record.ciphertext;
  if (auto status = open_inplace(enc_key, mac_key, record.nonce, data,
                                 record.tag, aad);
      !status.ok())
    return status.error();
  return data;
}

}  // namespace unicore::crypto
