#include "crypto/aes.h"

#include <algorithm>

#if defined(__x86_64__) || defined(_M_X64)
#define UNICORE_AES_X86 1
#include <immintrin.h>
#endif

namespace unicore::crypto {

namespace {

constexpr std::uint8_t rotl8(std::uint8_t x, int n) {
  return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
}

constexpr std::uint32_t rotr32(std::uint32_t x, int n) {
  return n == 0 ? x : (x >> n) | (x << (32 - n));
}

/// Multiplication by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
}

/// The S-box (FIPS-197 5.1.1): multiplicative inverse, then the affine
/// map. p steps through the field by powers of the generator 3 and q by
/// powers of its inverse, so q = 1/p at every step.
constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> s{};
  std::uint8_t p = 1, q = 1;
  do {
    p = static_cast<std::uint8_t>(p ^ xtime(p));
    q = static_cast<std::uint8_t>(q ^ (q << 1));
    q = static_cast<std::uint8_t>(q ^ (q << 2));
    q = static_cast<std::uint8_t>(q ^ (q << 4));
    if (q & 0x80) q ^= 0x09;
    s[p] = static_cast<std::uint8_t>(q ^ rotl8(q, 1) ^ rotl8(q, 2) ^
                                     rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63);
  } while (p != 1);
  s[0] = 0x63;
  return s;
}

constexpr std::array<std::uint8_t, 256> kSbox = make_sbox();

/// SubBytes + MixColumns of one input byte as a big-endian column
/// (2s, s, s, 3s); the other three row positions are its rotations.
constexpr std::array<std::uint32_t, 256> make_te() {
  std::array<std::uint32_t, 256> t{};
  for (std::size_t x = 0; x < 256; ++x) {
    std::uint32_t s = kSbox[x], s2 = xtime(kSbox[x]);
    t[x] = s2 << 24 | s << 16 | s << 8 | (s2 ^ s);
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTe = make_te();

static_assert(kSbox[0x00] == 0x63 && kSbox[0x01] == 0x7c &&
              kSbox[0x53] == 0xed && kSbox[0xff] == 0x16);

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

std::uint32_t sub_word(std::uint32_t w) {
  return static_cast<std::uint32_t>(kSbox[w >> 24]) << 24 |
         static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xff]) << 16 |
         static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xff]) << 8 |
         kSbox[w & 0xff];
}

// --- portable backend ---------------------------------------------------

using RoundWords = std::array<std::uint32_t, 60>;

RoundWords round_words(const Aes256Key& key) {
  RoundWords w;
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = load_be32(key.round_keys.data() + 4 * i);
  return w;
}

std::uint32_t te(std::uint32_t byte, int row) {
  return rotr32(kTe[byte & 0xff], 8 * row);
}

/// One block through the 14 rounds: each middle round is four table
/// lookups per column (ShiftRows picks the source columns), the last
/// round S-box lookups without MixColumns.
void encrypt_words(const RoundWords& rk, const std::uint8_t* in,
                   std::uint8_t* out) {
  std::uint32_t s0 = load_be32(in) ^ rk[0], s1 = load_be32(in + 4) ^ rk[1],
                s2 = load_be32(in + 8) ^ rk[2], s3 = load_be32(in + 12) ^ rk[3];
  for (std::size_t r = 1; r < 14; ++r) {
    const std::uint32_t* k = rk.data() + 4 * r;
    std::uint32_t t0 = te(s0 >> 24, 0) ^ te(s1 >> 16, 1) ^ te(s2 >> 8, 2) ^
                       te(s3, 3) ^ k[0];
    std::uint32_t t1 = te(s1 >> 24, 0) ^ te(s2 >> 16, 1) ^ te(s3 >> 8, 2) ^
                       te(s0, 3) ^ k[1];
    std::uint32_t t2 = te(s2 >> 24, 0) ^ te(s3 >> 16, 1) ^ te(s0 >> 8, 2) ^
                       te(s1, 3) ^ k[2];
    std::uint32_t t3 = te(s3 >> 24, 0) ^ te(s0 >> 16, 1) ^ te(s1 >> 8, 2) ^
                       te(s2, 3) ^ k[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d) {
    return static_cast<std::uint32_t>(kSbox[a >> 24]) << 24 |
           static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16 |
           static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8 |
           kSbox[d & 0xff];
  };
  store_be32(out, last(s0, s1, s2, s3) ^ rk[56]);
  store_be32(out + 4, last(s1, s2, s3, s0) ^ rk[57]);
  store_be32(out + 8, last(s2, s3, s0, s1) ^ rk[58]);
  store_be32(out + 12, last(s3, s0, s1, s2) ^ rk[59]);
}

void block_portable(const Aes256Key& key, const std::uint8_t* in,
                    std::uint8_t* out) {
  encrypt_words(round_words(key), in, out);
}

void ctr_portable(const Aes256Key& key, std::uint64_t nonce,
                  std::uint8_t* data, std::size_t size) {
  const RoundWords rk = round_words(key);
  std::uint8_t counter[16], stream[16];
  store_be64(counter, nonce);
  std::uint64_t index = 0;
  for (std::size_t pos = 0; pos < size; pos += 16) {
    store_be64(counter + 8, index++);
    encrypt_words(rk, counter, stream);
    std::size_t n = std::min<std::size_t>(16, size - pos);
    for (std::size_t i = 0; i < n; ++i) data[pos + i] ^= stream[i];
  }
}

// --- AES-NI backend -----------------------------------------------------

#ifdef UNICORE_AES_X86
#define UNICORE_AESNI_TARGET "aes,sse4.1,ssse3"

using XmmRoundKeys = __m128i[15];

__attribute__((target(UNICORE_AESNI_TARGET), always_inline)) inline void
load_round_keys(const Aes256Key& key, XmmRoundKeys& rk) {
  for (std::size_t r = 0; r < 15; ++r)
    rk[r] = _mm_load_si128(
        reinterpret_cast<const __m128i*>(key.round_keys.data() + 16 * r));
}

__attribute__((target(UNICORE_AESNI_TARGET), always_inline)) inline __m128i
encrypt_xmm(const XmmRoundKeys& rk, __m128i block) {
  block = _mm_xor_si128(block, rk[0]);
  for (std::size_t r = 1; r < 14; ++r) block = _mm_aesenc_si128(block, rk[r]);
  return _mm_aesenclast_si128(block, rk[14]);
}

__attribute__((target(UNICORE_AESNI_TARGET))) void block_aesni(
    const Aes256Key& key, const std::uint8_t* in, std::uint8_t* out) {
  XmmRoundKeys rk;
  load_round_keys(key, rk);
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(out),
      encrypt_xmm(rk, _mm_loadu_si128(reinterpret_cast<const __m128i*>(in))));
}

/// The keystream XORed over data[0, size): eight independent blocks per
/// step keep the aesenc pipeline full, then one block at a time, the
/// last one cut to the data.
__attribute__((target(UNICORE_AESNI_TARGET))) void ctr_aesni(
    const Aes256Key& key, std::uint64_t nonce, std::uint8_t* data,
    std::size_t size) {
  XmmRoundKeys rk;
  load_round_keys(key, rk);
  // The counter is held as the host-order qwords (nonce, index); the
  // shuffle reverses the bytes of each half into BE64(nonce) || BE64(index).
  const __m128i swap =
      _mm_set_epi8(8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i one = _mm_set_epi64x(1, 0);
  __m128i ctr = _mm_set_epi64x(0, static_cast<long long>(nonce));
  constexpr std::size_t kBlocks = 8;
  std::size_t pos = 0;
  for (; size - pos >= kBlocks * 16; pos += kBlocks * 16) {
    __m128i b[kBlocks];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kBlocks; ++j) {
      b[j] = _mm_xor_si128(_mm_shuffle_epi8(ctr, swap), rk[0]);
      ctr = _mm_add_epi64(ctr, one);
    }
    for (std::size_t r = 1; r < 14; ++r)
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kBlocks; ++j)
        b[j] = _mm_aesenc_si128(b[j], rk[r]);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kBlocks; ++j) {
      auto* p = reinterpret_cast<__m128i*>(data + pos + 16 * j);
      _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p),
                                        _mm_aesenclast_si128(b[j], rk[14])));
    }
  }
  for (; pos < size; pos += 16) {
    const __m128i stream = encrypt_xmm(rk, _mm_shuffle_epi8(ctr, swap));
    ctr = _mm_add_epi64(ctr, one);
    if (size - pos >= 16) {
      auto* p = reinterpret_cast<__m128i*>(data + pos);
      _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), stream));
    } else {
      alignas(16) std::uint8_t tail[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(tail), stream);
      for (std::size_t i = 0; i < size - pos; ++i) data[pos + i] ^= tail[i];
    }
  }
}
#endif  // UNICORE_AES_X86

using CtrFn = void (*)(const Aes256Key&, std::uint64_t, std::uint8_t*,
                       std::size_t);
using BlockFn = void (*)(const Aes256Key&, const std::uint8_t*,
                         std::uint8_t*);

struct Backend {
  CtrFn ctr;
  BlockFn block;
};

Backend resolve_backend(bool allow_hardware) {
#ifdef UNICORE_AES_X86
  if (allow_hardware && __builtin_cpu_supports("aes") &&
      __builtin_cpu_supports("sse4.1") && __builtin_cpu_supports("ssse3"))
    return {&ctr_aesni, &block_aesni};
#else
  (void)allow_hardware;
#endif
  return {&ctr_portable, &block_portable};
}

Backend g_backend = resolve_backend(true);

}  // namespace

Aes256Key aes256_expand_key(std::span<const std::uint8_t, 32> key) {
  std::array<std::uint32_t, 60> w;
  for (std::size_t i = 0; i < 8; ++i) w[i] = load_be32(key.data() + 4 * i);
  std::uint8_t rcon = 0x01;
  for (std::size_t i = 8; i < w.size(); ++i) {
    std::uint32_t t = w[i - 1];
    if (i % 8 == 0) {
      t = sub_word(rotr32(t, 24)) ^ static_cast<std::uint32_t>(rcon) << 24;
      rcon = xtime(rcon);
    } else if (i % 8 == 4) {
      t = sub_word(t);
    }
    w[i] = w[i - 8] ^ t;
  }
  Aes256Key expanded;
  for (std::size_t i = 0; i < w.size(); ++i)
    store_be32(expanded.round_keys.data() + 4 * i, w[i]);
  return expanded;
}

void aes256_encrypt_block(const Aes256Key& key,
                          std::span<const std::uint8_t, 16> in,
                          std::span<std::uint8_t, 16> out) {
  g_backend.block(key, in.data(), out.data());
}

void aes256_ctr_xor(const Aes256Key& key, std::uint64_t nonce,
                    std::uint8_t* data, std::size_t size) {
  g_backend.ctr(key, nonce, data, size);
}

bool aes_hardware_accelerated() {
  return g_backend.block != &block_portable;
}

namespace detail {
void select_aes_backend(bool allow_hardware) {
  g_backend = resolve_backend(allow_hardware);
}
}  // namespace detail

}  // namespace unicore::crypto
