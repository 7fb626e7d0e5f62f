#include "crypto/chunk_digest.h"

namespace unicore::crypto {

Digest chunk_content_digest(util::ByteView payload) {
  return sha256(payload);
}

Digest synthetic_chunk_digest(const Digest& file_checksum,
                              std::uint64_t index, std::uint32_t length) {
  util::ByteWriter w;
  w.str("unicore-xfer-chunk");
  w.raw(file_checksum);
  w.u64(index);
  w.u32(length);
  return sha256(w.bytes());
}

std::uint64_t chunk_count(std::uint64_t size, std::uint32_t chunk_bytes) {
  if (chunk_bytes == 0) return 0;
  if (size == 0) return 1;
  // Not (size + chunk_bytes - 1) / chunk_bytes: that wraps for sizes
  // near 2^64, which a manifest off the wire may declare.
  return size / chunk_bytes + (size % chunk_bytes != 0 ? 1 : 0);
}

std::uint32_t chunk_length(std::uint64_t size, std::uint32_t chunk_bytes,
                           std::uint64_t index) {
  std::uint64_t offset = index * static_cast<std::uint64_t>(chunk_bytes);
  std::uint64_t remaining = size > offset ? size - offset : 0;
  return static_cast<std::uint32_t>(
      remaining < chunk_bytes ? remaining : chunk_bytes);
}

}  // namespace unicore::crypto
