#include "crypto/cipher.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace unicore::crypto {
namespace {

using util::Bytes;

SymmetricKey key_of(std::uint8_t fill) {
  return SymmetricKey{Bytes(32, fill)};
}

TEST(CtrCipher, RoundTripIsIdentity) {
  SymmetricKey key = key_of(0x42);
  Bytes plaintext = util::to_bytes("attack at dawn");
  Bytes ciphertext = ctr_crypt(key, 7, plaintext);
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(ctr_crypt(key, 7, ciphertext), plaintext);
}

TEST(CtrCipher, EmptyInput) {
  EXPECT_TRUE(ctr_crypt(key_of(1), 0, {}).empty());
}

class CtrSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CtrSizes, RoundTripAcrossBlockBoundaries) {
  util::Rng rng(GetParam());
  SymmetricKey key{rng.bytes(32)};
  Bytes plaintext = rng.bytes(GetParam());
  Bytes back = ctr_crypt(key, 3, ctr_crypt(key, 3, plaintext));
  EXPECT_EQ(back, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CtrSizes,
                         ::testing::Values(1u, 31u, 32u, 33u, 64u, 100u,
                                           1000u, 4096u));

TEST(CtrCipher, NonceChangesKeystream) {
  SymmetricKey key = key_of(0x11);
  Bytes plaintext(64, 0);  // zero plaintext exposes the raw keystream
  EXPECT_NE(ctr_crypt(key, 1, plaintext), ctr_crypt(key, 2, plaintext));
}

TEST(CtrCipher, KeyChangesKeystream) {
  Bytes plaintext(64, 0);
  EXPECT_NE(ctr_crypt(key_of(1), 5, plaintext),
            ctr_crypt(key_of(2), 5, plaintext));
}

TEST(Seal, OpenRecoversPlaintext) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  Bytes plaintext = util::to_bytes("the abstract job object");
  Bytes aad = util::to_bytes("header");
  SealedRecord record = seal(enc, mac, 9, plaintext, aad);
  auto opened = open(enc, mac, record, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), plaintext);
}

TEST(Seal, TamperedCiphertextRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record = seal(enc, mac, 9, util::to_bytes("payload"), {});
  record.ciphertext[0] ^= 0x01;
  auto opened = open(enc, mac, record, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, util::ErrorCode::kAuthenticationFailed);
}

TEST(Seal, TamperedTagRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record = seal(enc, mac, 9, util::to_bytes("payload"), {});
  record.tag[31] ^= 0x80;
  EXPECT_FALSE(open(enc, mac, record, {}).ok());
}

TEST(Seal, TamperedNonceRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record = seal(enc, mac, 9, util::to_bytes("payload"), {});
  record.nonce = 10;
  EXPECT_FALSE(open(enc, mac, record, {}).ok());
}

TEST(Seal, WrongAadRejected) {
  SymmetricKey enc = key_of(0xaa), mac = key_of(0xbb);
  SealedRecord record =
      seal(enc, mac, 9, util::to_bytes("payload"), util::to_bytes("aad-1"));
  EXPECT_FALSE(open(enc, mac, record, util::to_bytes("aad-2")).ok());
  EXPECT_TRUE(open(enc, mac, record, util::to_bytes("aad-1")).ok());
}

TEST(Seal, WrongMacKeyRejected) {
  SymmetricKey enc = key_of(0xaa);
  SealedRecord record = seal(enc, key_of(0xbb), 9, util::to_bytes("p"), {});
  EXPECT_FALSE(open(enc, key_of(0xbc), record, {}).ok());
}

// --- in-place variants (the record-layer hot path) ---------------------

TEST(InPlace, CtrMatchesCopyingVariant) {
  util::Rng rng(77);
  SymmetricKey key{rng.bytes(32)};
  for (std::size_t size : {1u, 31u, 32u, 33u, 64u, 1000u, 4096u}) {
    Bytes data = rng.bytes(size);
    Bytes expected = ctr_crypt(key, 42, data);
    Bytes in_place = data;
    ctr_crypt_inplace(key, 42, in_place.data(), in_place.size());
    EXPECT_EQ(in_place, expected) << "size " << size;
  }
}

TEST(InPlace, SealMatchesCopyingVariant) {
  util::Rng rng(78);
  SymmetricKey enc{rng.bytes(32)}, mac{rng.bytes(32)};
  Bytes plaintext = rng.bytes(500);
  Bytes aad = util::to_bytes("hdr");
  SealedRecord copied = seal(enc, mac, 5, plaintext, aad);
  Bytes data = plaintext;
  Digest tag = seal_inplace(enc, mac, 5, data, aad);
  EXPECT_EQ(data, copied.ciphertext);
  EXPECT_EQ(tag, copied.tag);
}

TEST(InPlace, SealOpenRoundTrip) {
  SymmetricKey enc = key_of(0x31), mac = key_of(0x32);
  Bytes plaintext = util::to_bytes("in-place record payload");
  Bytes aad = util::to_bytes("seq=1");
  Bytes data = plaintext;
  Digest tag = seal_inplace(enc, mac, 1, data, aad);
  EXPECT_NE(data, plaintext);
  ASSERT_TRUE(open_inplace(enc, mac, 1, data, tag, aad).ok());
  EXPECT_EQ(data, plaintext);
}

TEST(InPlace, OpenLeavesDataEncryptedOnFailure) {
  SymmetricKey enc = key_of(0x31), mac = key_of(0x32);
  Bytes data = util::to_bytes("payload");
  Digest tag = seal_inplace(enc, mac, 1, data, {});
  Bytes ciphertext = data;
  Digest bad_tag = tag;
  bad_tag[0] ^= 0x01;
  auto status = open_inplace(enc, mac, 1, data, bad_tag, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kAuthenticationFailed);
  // The buffer must not hold plaintext after a failed verification.
  EXPECT_EQ(data, ciphertext);
}

TEST(InPlace, TamperedCiphertextRejected) {
  SymmetricKey enc = key_of(0x31), mac = key_of(0x32);
  Bytes data = util::to_bytes("payload");
  Digest tag = seal_inplace(enc, mac, 1, data, {});
  data[3] ^= 0x10;
  EXPECT_FALSE(open_inplace(enc, mac, 1, data, tag, {}).ok());
}

TEST(InPlace, CrossCompatibleWithCopyingSealOpen) {
  // A record sealed in place opens through the legacy API and vice
  // versa — both ends of a channel may run either code path.
  SymmetricKey enc = key_of(0x41), mac = key_of(0x42);
  Bytes aad = util::to_bytes("dir=0 seq=9");
  Bytes data = util::to_bytes("interop");
  SealedRecord record;
  record.nonce = 9;
  record.tag = seal_inplace(enc, mac, 9, data, aad);
  record.ciphertext = data;
  auto opened = open(enc, mac, record, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), util::to_bytes("interop"));

  SealedRecord legacy = seal(enc, mac, 10, util::to_bytes("reverse"), aad);
  Bytes buffer = legacy.ciphertext;
  ASSERT_TRUE(open_inplace(enc, mac, 10, buffer, legacy.tag, aad).ok());
  EXPECT_EQ(buffer, util::to_bytes("reverse"));
}

TEST(CtrCipher, RejectsKeysOtherThan32Bytes) {
  EXPECT_THROW(SymmetricKey{Bytes(17, 1)}, std::invalid_argument);
  EXPECT_THROW(SymmetricKey{Bytes(33, 1)}, std::invalid_argument);
  EXPECT_THROW(SymmetricKey{Bytes{}}, std::invalid_argument);
}

// --- one const key shared by record-pool workers ------------------------

TEST(SharedKey, PoolWorkersSealAndOpenWithOneConstKey) {
  // The record pool seals and opens a batch's records on worker threads
  // through the channel's keys: the per-key AES and HMAC state must be
  // read-only, and the output must equal a serial run's.
  const SymmetricKey enc = key_of(0x51), mac = key_of(0x52);
  const Bytes aad = util::to_bytes("dir=1");
  util::Rng rng(91);
  constexpr std::size_t kRecords = 48;
  std::vector<Bytes> plaintexts;
  for (std::size_t i = 0; i < kRecords; ++i)
    plaintexts.push_back(rng.bytes(37 + 97 * i));  // sub-block to 4.6 KiB
  std::vector<Bytes> serial = plaintexts;
  std::vector<Digest> serial_tags(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i)
    serial_tags[i] = seal_inplace(enc, mac, i, serial[i], aad);

  util::ThreadPool pool(4);
  std::vector<Bytes> data = plaintexts;
  std::vector<Digest> tags(kRecords);
  pool.parallel_for(kRecords, [&](std::size_t i) {
    tags[i] = seal_inplace(enc, mac, i, data[i], aad);
  });
  EXPECT_EQ(data, serial);
  EXPECT_EQ(tags, serial_tags);
  std::vector<int> opened(kRecords, 0);
  pool.parallel_for(kRecords, [&](std::size_t i) {
    opened[i] = open_inplace(enc, mac, i, data[i], tags[i], aad).ok();
  });
  EXPECT_EQ(opened, std::vector<int>(kRecords, 1));
  EXPECT_EQ(data, plaintexts);
}

// --- AES-256-CTR + HMAC known answers, every backend the CPU has ---------

// Empty, sub-block, the 16-byte block edges, the 128-byte step of the
// AES-NI bulk loop and its 256-byte edges, seven steps plus a
// one-block-at-a-time tail cut short (1000), a page plus a tail, and a
// bulk payload.
constexpr std::size_t kKatLengths[] = {0,   1,   15,   16,       17,
                                       127, 128, 129,  255,      256,
                                       257, 1000, 4096 + 17, 256 * 1024 + 77};

struct KatCase {
  std::uint64_t nonce;
  const char* ciphertexts;  // SHA-256 over every length's ciphertext
  const char* tags;         // SHA-256 over every length's tag
};

// Generated with python3: `cryptography` 48 AES-256 in CTR mode, initial
// counter block BE64(nonce) || BE64(0), and `hmac` with SHA-256 over
// BE64(nonce) || varint(len) || ciphertext || varint(13) || aad, sealing
// the first n bytes of kat_plaintext() for each n of kKatLengths.
constexpr KatCase kKatCases[] = {
    {0, "529c9e2af878327ecc7d903ed1b593f1352395b213d2273b593321fdd7891d62",
     "f9259fc74dec888ec0143d5321e9c4a446587e2f48bb899b2c99cb145dda9399"},
    {1, "58a9c42c3ccd2a230255a4512252fff6bab09205538a89dff0ad11a1c1de17e7",
     "d9643d25b6141fda5f2d41c143312c474e34ce8e744316c3dd0b1999b8fcb44b"},
    {1ULL << 63,
     "162724451ae256cd8ca58e3f0741d6f858fe2c0067424135c0a7c5ed5aee6721",
     "e84e2204b78b246da9c99aa20b2cc9b81088563f6deb3854c30c9d8c03dfb9fa"},
};

/// Byte i of the pattern is (i * mul + add) mod 256.
Bytes pattern(std::size_t size, unsigned mul, unsigned add) {
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i)
    out[i] = static_cast<std::uint8_t>(i * mul + add);
  return out;
}

Bytes kat_plaintext() { return pattern(256 * 1024 + 77, 131, 7); }
SymmetricKey kat_enc_key() { return SymmetricKey{pattern(32, 7, 3)}; }
SymmetricKey kat_mac_key() { return SymmetricKey{pattern(32, 13, 5)}; }
Bytes kat_aad() { return pattern(13, 29, 1); }

std::string hex(util::ByteView b) { return util::hex_encode(b); }

/// The construction spelled out: keystream block i is the AES-256 block
/// encryption of BE64(nonce) || BE64(i).
Bytes reference_keystream(const SymmetricKey& key, std::uint64_t nonce,
                          std::size_t size) {
  Bytes stream;
  for (std::uint64_t index = 0; stream.size() < size; ++index) {
    util::ByteWriter counter;
    counter.u64(nonce);
    counter.u64(index);
    std::array<std::uint8_t, 16> block{};
    aes256_encrypt_block(key.cipher(),
                         std::span<const std::uint8_t, 16>(
                             counter.bytes().data(), 16),
                         block);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  stream.resize(size);
  return stream;
}

/// Runs each case on the AES-NI / SHA-NI backend (true) or the portable
/// one (false); the hardware half skips where the CPU has no AES-NI.
class KeystreamBackends : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !aes_hardware_accelerated())
      GTEST_SKIP() << "no AES-NI on this machine";
    set_crypto_acceleration(GetParam());
  }
  void TearDown() override { set_crypto_acceleration(true); }
};

TEST_P(KeystreamBackends, Fips197BlockKat) {
  // FIPS-197 Appendix C.3: AES-256, key 00 01 .. 1f.
  const Bytes key = pattern(32, 1, 0);
  const Bytes plaintext =
      util::hex_decode("00112233445566778899aabbccddeeff");
  std::array<std::uint8_t, 16> out{};
  aes256_encrypt_block(aes256_expand_key(std::span<const std::uint8_t, 32>(
                           key.data(), 32)),
                       std::span<const std::uint8_t, 16>(plaintext.data(), 16),
                       out);
  EXPECT_EQ(hex(out), "8ea2b7ca516745bfeafc49904b496089");
}

TEST_P(KeystreamBackends, MatchesPinnedDigests) {
  const Bytes plaintext = kat_plaintext();
  const SymmetricKey enc = kat_enc_key(), mac = kat_mac_key();
  const Bytes aad = kat_aad();
  for (const KatCase& c : kKatCases) {
    Sha256 ciphertexts, tags;
    for (std::size_t n : kKatLengths) {
      Bytes data(plaintext.begin(),
                 plaintext.begin() + static_cast<std::ptrdiff_t>(n));
      Digest tag = seal_inplace(enc, mac, c.nonce, data, aad);
      ciphertexts.update(data);
      tags.update(tag);
    }
    EXPECT_EQ(hex(ciphertexts.finish()), c.ciphertexts) << "nonce " << c.nonce;
    EXPECT_EQ(hex(tags.finish()), c.tags) << "nonce " << c.nonce;
  }
}

TEST_P(KeystreamBackends, MatchesReferenceConstruction) {
  const SymmetricKey key = kat_enc_key();
  for (const KatCase& c : kKatCases) {
    // A zero plaintext exposes the raw keystream.
    for (std::size_t n : kKatLengths) {
      if (n > 4096 + 17) continue;  // the pinned digests cover bulk sizes
      EXPECT_EQ(ctr_crypt(key, c.nonce, Bytes(n, 0)),
                reference_keystream(key, c.nonce, n))
          << "nonce " << c.nonce << " length " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CipherBackend, KeystreamBackends,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hardware" : "Portable";
                         });

}  // namespace
}  // namespace unicore::crypto
