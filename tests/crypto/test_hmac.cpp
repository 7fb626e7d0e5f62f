#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <utility>

namespace unicore::crypto {
namespace {

using util::Bytes;

std::string hex(util::ByteView b) { return util::hex_encode(b); }

// RFC 4231 HMAC-SHA256 test vectors.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest mac = hmac_sha256(key, util::to_bytes("Hi There"));
  EXPECT_EQ(hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Digest mac = hmac_sha256(util::to_bytes("Jefe"),
                           util::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);  // longer than the block size -> key is hashed
  Digest mac = hmac_sha256(
      key, util::to_bytes("Test Using Larger Than Block-Size Key - "
                          "Hash Key First"));
  EXPECT_EQ(hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// A 32-byte key (the handshake's Finished MACs and the record tags use
// precomputed keys of this size) over messages that end around the
// inner and outer block edges. Generated with python3 `hmac` (SHA-256),
// key bytes (i * 13 + 5) mod 256, message bytes (i * 17 + 11) mod 256.
TEST(Hmac, PrecomputedKeyMatchesPython) {
  Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const HmacKey precomputed(key);
  const std::pair<std::size_t, const char*> kCases[] = {
      {0, "492353251497d42ccd8683fed0babaf7b28d9251376c2b3e0da96a0ba9e45a53"},
      {1, "a27107fb182304586ab60453dd6cc8d39f8b97fc692badcb143bf9e5f5acd25e"},
      {55, "9f9411ebb5118f63306c46817d8586abff9d3c0ad348792a53440a3542aa9ac0"},
      {56, "2c234a25b97061e86072e7a70226f770cc8660b248c192fd891a442a31ed10d0"},
      {63, "f8aae22a83d525f6f9cc1b123c3bfa19aaa606e1193ac3bbbe64e5536332160b"},
      {64, "a637fe346d0222b9088035bebbee3f257d3b33272d8dd76431c8df8df348ab9b"},
      {65, "a1e77e7f484b0a4e9766df871d425dca53fcca970cfc6afc0b5f0af2d34376a6"},
      {200,
       "a987b8ef1f35c44c5edf162a4641131675d10f0591159ab4f481a4b05420bb51"},
      {1000,
       "56cccf96b7b91006770e20ea496bc30335364dfaf3f8ad0889d5068815bbb020"},
  };
  for (const auto& [n, expected] : kCases) {
    Bytes data(n);
    for (std::size_t i = 0; i < n; ++i)
      data[i] = static_cast<std::uint8_t>(i * 17 + 11);
    EXPECT_EQ(hex(hmac_sha256(precomputed, data)), expected) << "n=" << n;
    EXPECT_EQ(hex(hmac_sha256(key, data)), expected) << "n=" << n;
    // Streamed in two parts from the same precomputed key: the key's
    // saved states are copied, never advanced.
    HmacSha256 mac(precomputed);
    mac.update(util::ByteView(data).first(n / 3));
    mac.update(util::ByteView(data).subspan(n / 3));
    EXPECT_EQ(hex(mac.finish()), expected) << "n=" << n;
  }
}

TEST(Hmac, KeySensitivity) {
  Bytes data = util::to_bytes("payload");
  EXPECT_NE(hmac_sha256(util::to_bytes("k1"), data),
            hmac_sha256(util::to_bytes("k2"), data));
}

// RFC 5869 Test Case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt;
  for (std::uint8_t i = 0; i <= 12; ++i) salt.push_back(i);
  Bytes info;
  for (std::uint8_t i = 0xf0; i <= 0xf9; ++i) info.push_back(i);

  Digest prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  Digest prk = hkdf_extract(util::to_bytes("salt"), util::to_bytes("ikm"));
  EXPECT_EQ(hkdf_expand(prk, {}, 0).size(), 0u);
  EXPECT_EQ(hkdf_expand(prk, {}, 1).size(), 1u);
  EXPECT_EQ(hkdf_expand(prk, {}, 32).size(), 32u);
  EXPECT_EQ(hkdf_expand(prk, {}, 33).size(), 33u);
  EXPECT_EQ(hkdf_expand(prk, {}, 255 * 32).size(), 255u * 32);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(Hkdf, PrefixConsistency) {
  // Shorter outputs are prefixes of longer ones (per construction).
  Digest prk = hkdf_extract(util::to_bytes("s"), util::to_bytes("k"));
  Bytes long_out = hkdf_expand(prk, util::to_bytes("ctx"), 96);
  Bytes short_out = hkdf_expand(prk, util::to_bytes("ctx"), 40);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(),
                         long_out.begin()));
}

TEST(Hkdf, InfoSeparatesKeys) {
  Digest prk = hkdf_extract(util::to_bytes("s"), util::to_bytes("k"));
  EXPECT_NE(hkdf_expand(prk, util::to_bytes("a"), 32),
            hkdf_expand(prk, util::to_bytes("b"), 32));
}

}  // namespace
}  // namespace unicore::crypto
