#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <utility>

namespace unicore::crypto {
namespace {

std::string hex(const Digest& d) { return util::hex_encode(d); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789abcdef";
  Digest one_shot = sha256(message);
  // Feed in every possible two-way split.
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 ctx;
    ctx.update(std::string_view(message).substr(0, split));
    ctx.update(std::string_view(message).substr(split));
    EXPECT_EQ(ctx.finish(), one_shot) << "split=" << split;
  }
}

TEST(Sha256, EmptyUpdateAfterPartialBlock) {
  // A partial block is buffered, then an empty (null-data) view arrives:
  // the digest must not change, and no null pointer reaches memcpy.
  Sha256 ctx;
  ctx.update(std::string_view("abc"));
  ctx.update(util::ByteView{});
  ctx.update(std::string_view{});
  EXPECT_EQ(ctx.finish(), sha256("abc"));
}

TEST(Sha256, ExactBlockSizeInputs) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string message(n, 'x');
    Sha256 ctx;
    for (char c : message) ctx.update(std::string_view(&c, 1));
    EXPECT_EQ(ctx.finish(), sha256(message)) << "n=" << n;
  }
}

// Every message length 0..130 runs each padding case: the length field
// fits after the 0x80 byte in the last block (n mod 64 <= 55) or spills
// into one more block (56..63), across one, two and three blocks.
// Generated with python3 hashlib over bytes (i * 37 + 5) mod 256.
TEST(Sha256, PaddingEdgesMatchHashlib) {
  auto message = [](std::size_t n) {
    util::Bytes m(n);
    for (std::size_t i = 0; i < n; ++i)
      m[i] = static_cast<std::uint8_t>(i * 37 + 5);
    return m;
  };
  const std::pair<std::size_t, const char*> kEdges[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "63f52ae0ec1391993ee650b77287900a094013bdd9cf28120f9ff7c703791ddd"},
      {56, "3d369c762eaea64e0dfb8cf4dde147ff4138fe1fee32fa93cb318302264c1f32"},
      {63, "b73e65e88fbed8af578fad59b7f5ed237d73b5f5f0ebd608ef9d041073262928"},
      {64, "4806b7815935102d84ecbaa7958da9b6b1911f10fb4ce1a5670480d125a5f9bd"},
      {119,
       "251242f0ca79a6c005977aa95bef1cd9a6ed288ec874f8fc861ed3c60116e379"},
      {120,
       "0556360a4457b879efbd578bc223bb7ac04f2a834f62bff292c7fb9bcbfc7765"},
      {130,
       "847c421293c2759eb0ccb73e2140c10633b41d863d5b47b767300a314ce47b26"},
  };
  for (bool hardware : {true, false}) {
    if (hardware && !sha256_hardware_accelerated()) continue;
    set_crypto_acceleration(hardware);
    for (const auto& [n, digest] : kEdges)
      EXPECT_EQ(hex(sha256(message(n))), digest) << "n=" << n;
    // SHA-256 over the concatenated digests of every length 0..130.
    Sha256 all;
    for (std::size_t n = 0; n <= 130; ++n) all.update(sha256(message(n)));
    EXPECT_EQ(hex(all.finish()),
              "b55ceb28dda5f57104950702d6f4065a9ffb8f4775e87c549e8fe2309881fc07")
        << (hardware ? "SHA-NI" : "portable");
  }
  set_crypto_acceleration(true);
}

TEST(Sha256, DigestPrefix64BigEndian) {
  Digest d{};
  for (int i = 0; i < 8; ++i) d[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(digest_prefix64(d), 0x0102030405060708ULL);
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256, HardwareAndPortableBackendsAgree) {
  if (!sha256_hardware_accelerated())
    GTEST_SKIP() << "no SHA-NI on this machine";
  // Lengths that cover empty input, sub-block, the padding straddle
  // (55/56/64), multi-block, and a bulk buffer.
  std::vector<std::string> inputs;
  for (std::size_t n : {0u, 1u, 3u, 31u, 32u, 55u, 56u, 63u, 64u, 65u,
                        127u, 128u, 1000u, 100'000u})
    inputs.push_back(std::string(n, static_cast<char>('a' + n % 26)));
  std::vector<Digest> accelerated;
  for (const std::string& in : inputs) accelerated.push_back(sha256(in));

  set_crypto_acceleration(false);
  EXPECT_FALSE(sha256_hardware_accelerated());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(sha256(inputs[i]), accelerated[i])
        << "length " << inputs[i].size();
  set_crypto_acceleration(true);
  EXPECT_TRUE(sha256_hardware_accelerated());
}

}  // namespace
}  // namespace unicore::crypto
