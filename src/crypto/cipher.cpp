#include "crypto/cipher.h"

#include <stdexcept>

namespace unicore::crypto {

namespace {

void store_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
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
  HmacSha256 mac(mac_key.mac());
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

std::span<const std::uint8_t, 32> key_bytes(util::ByteView material) {
  if (material.size() != 32)
    throw std::invalid_argument("SymmetricKey: key material must be 32 bytes");
  return material.first<32>();
}

}  // namespace

SymmetricKey::SymmetricKey(util::ByteView material)
    : cipher_(aes256_expand_key(key_bytes(material))), mac_(material) {}

void ctr_crypt_inplace(const SymmetricKey& key, std::uint64_t nonce,
                       std::uint8_t* data, std::size_t size) {
  aes256_ctr_xor(key.cipher(), nonce, data, size);
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
