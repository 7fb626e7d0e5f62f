#include "crypto/hmac.h"

#include <stdexcept>

namespace unicore::crypto {

HmacKey::HmacKey(util::ByteView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_ = Sha256().update(ipad).state_;
  outer_ = Sha256().update(opad).state_;
}

Digest hmac_sha256(const HmacKey& key, util::ByteView data) {
  return HmacSha256(key).update(data).finish();
}

Digest hmac_sha256(util::ByteView key, util::ByteView data) {
  return hmac_sha256(HmacKey(key), data);
}

Digest hkdf_extract(util::ByteView salt, util::ByteView ikm) {
  return hmac_sha256(salt, ikm);
}

util::Bytes hkdf_expand(const Digest& prk, util::ByteView info,
                        std::size_t length) {
  if (length > 255 * 32)
    throw std::invalid_argument("hkdf_expand: length too large");
  util::Bytes out;
  out.reserve(length);
  const HmacKey key(prk);
  util::Bytes previous;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    util::Bytes msg = previous;
    util::append(msg, info);
    msg.push_back(counter++);
    Digest t = hmac_sha256(key, msg);
    previous.assign(t.begin(), t.end());
    std::size_t take = std::min<std::size_t>(32, length - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

}  // namespace unicore::crypto
