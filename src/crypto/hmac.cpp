#include "crypto/hmac.hpp"

#include "common/codec.hpp"

namespace fastbft::crypto {

HmacSha256::HmacSha256(ByteView key) {
  constexpr std::size_t kBlockSize = Sha256::kBlockSize;
  // Keys longer than one block are hashed down first (RFC 2104).
  std::array<std::uint8_t, kBlockSize> block{};
  if (key.size() > kBlockSize) {
    Digest hashed = sha256(key);
    std::copy(hashed.begin(), hashed.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }

  std::array<std::uint8_t, kBlockSize> ipad;
  std::array<std::uint8_t, kBlockSize> opad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(ipad.data(), ipad.size());
  outer_.update(opad.data(), opad.size());
}

Digest HmacSha256::finalize() {
  Digest inner_digest = inner_.finalize();
  outer_.update(inner_digest.data(), inner_digest.size());
  return outer_.finalize();
}

Digest hmac_sha256(ByteView key, ByteView message) {
  HmacSha256 mac(key);
  mac.update(message);
  return mac.finalize();
}

Bytes derive_key(const Bytes& key, const std::string& label,
                 std::uint64_t index) {
  Encoder enc;
  enc.str(label);
  enc.u64(index);
  Digest d = hmac_sha256(key, enc.view());
  return Bytes(d.begin(), d.end());
}

}  // namespace fastbft::crypto
