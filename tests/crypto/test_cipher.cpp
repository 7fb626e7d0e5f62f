#include "crypto/cipher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "util/rng.h"

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

// --- keystream known answers, both SHA-256 backends --------------------

// Every lane remainder and tail: empty, sub-block, block edges, the
// 2/3/4-block edges, a page plus a tail, and a bulk payload.
constexpr std::size_t kKatLengths[] = {0,   1,   31,  32,  33,  63,
                                       64,  65,  95,  96,  97,  127,
                                       128, 129, 4096 + 17, 256 * 1024 + 77};

struct KatCase {
  std::size_t key_length;  // 32 takes the template path, others the generic
  std::uint64_t nonce;
  const char* digest;  // SHA-256 over ctr_crypt output for every length
};

// Pinned from the one-block-per-call keystream the record layer shipped
// before lane-parallel hashing; any change to the keystream breaks them.
constexpr KatCase kKatCases[] = {
    {32, 0, "15606037b7bd3817e86745d3375009938bbf9fdb82c2bfac6b44bd3723ffbd2f"},
    {32, 1, "a1e146648028de891c1e101774c88912ddddd84ed5f6a2bd7e22d673946613d3"},
    {32, 1ULL << 63,
     "7b43b45c382e53d9deb6f73f4411dbdedbcebc3f9301e760b668de649805b106"},
    {17, 0, "bf09617b0f81f2940bf5fbb9280c22e13f610512fb5bbf806ef98f6dc894fd3f"},
    {17, 1, "2a30d0cd577e57bdd562f0975211c2cb8de0101db8bc984a3adf3e0d04dc4d7f"},
    {17, 1ULL << 63,
     "d9e0b8491608e10e9730a2e4fe61863be0999ee6307e737a826ed01b6d6b38b1"},
};

SymmetricKey kat_key(std::size_t length) {
  SymmetricKey key;
  for (std::size_t i = 0; i < length; ++i)
    key.material.push_back(static_cast<std::uint8_t>(i * 7 + 3));
  return key;
}

Bytes kat_plaintext() {
  Bytes plaintext(256 * 1024 + 77);
  for (std::size_t i = 0; i < plaintext.size(); ++i)
    plaintext[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return plaintext;
}

std::string hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

/// The construction spelled out: block i of the keystream is
/// SHA-256(key || nonce || i), both integers big-endian.
Bytes reference_keystream(const SymmetricKey& key, std::uint64_t nonce,
                          std::size_t size) {
  Bytes stream;
  for (std::uint64_t counter = 0; stream.size() < size; ++counter) {
    util::ByteWriter input;
    input.raw(key.material);
    input.u64(nonce);
    input.u64(counter);
    Digest block = sha256(input.bytes());
    stream.insert(stream.end(), block.begin(), block.end());
  }
  stream.resize(size);
  return stream;
}

/// Runs each case on the SHA-NI backend (true) or the portable one
/// (false); the hardware half skips where the CPU has no SHA-NI.
class KeystreamBackends : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !sha256_hardware_accelerated())
      GTEST_SKIP() << "no SHA-NI on this machine";
    set_sha256_acceleration(GetParam());
  }
  void TearDown() override { set_sha256_acceleration(true); }
};

TEST_P(KeystreamBackends, MatchesPinnedDigests) {
  const Bytes plaintext = kat_plaintext();
  for (const KatCase& c : kKatCases) {
    SymmetricKey key = kat_key(c.key_length);
    Sha256 all;
    for (std::size_t n : kKatLengths)
      all.update(ctr_crypt(key, c.nonce, util::ByteView(plaintext.data(), n)));
    EXPECT_EQ(hex(all.finish()), c.digest)
        << "key " << c.key_length << " nonce " << c.nonce;
  }
}

TEST_P(KeystreamBackends, MatchesReferenceConstruction) {
  for (const KatCase& c : kKatCases) {
    SymmetricKey key = kat_key(c.key_length);
    // A zero plaintext exposes the raw keystream.
    for (std::size_t n : kKatLengths) {
      if (n > 4096 + 17) continue;  // the pinned digests cover bulk sizes
      EXPECT_EQ(ctr_crypt(key, c.nonce, Bytes(n, 0)),
                reference_keystream(key, c.nonce, n))
          << "key " << c.key_length << " nonce " << c.nonce << " length "
          << n;
    }
  }
}

TEST_P(KeystreamBackends, SingleBlocksMatchIncrementalHash) {
  // Lane i hashes a 48-byte message whose bytes all equal i + 1,
  // pre-padded into one block.
  std::array<std::uint8_t, kSha256Lanes * 64> blocks{};
  for (std::size_t l = 0; l < kSha256Lanes; ++l) {
    std::uint8_t* block = blocks.data() + 64 * l;
    std::fill(block, block + 48, static_cast<std::uint8_t>(l + 1));
    block[48] = 0x80;
    block[62] = 0x01;
    block[63] = 0x80;
  }
  std::array<std::uint8_t, kSha256Lanes * 32> digests{};
  sha256_single_blocks(blocks, digests);
  for (std::size_t l = 0; l < kSha256Lanes; ++l) {
    Digest expected = sha256(Bytes(48, static_cast<std::uint8_t>(l + 1)));
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           digests.begin() + 32 * l))
        << "lane " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Sha256Backend, KeystreamBackends,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ShaNi" : "Portable";
                         });

}  // namespace
}  // namespace unicore::crypto
