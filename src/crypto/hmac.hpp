#pragma once

#include "crypto/sha256.hpp"

/// \file hmac.hpp
/// HMAC-SHA-256 (RFC 2104). Used both as the MAC underlying the simulation
/// signature scheme and as a keyed PRF for key derivation.

namespace fastbft::crypto {

/// Streaming HMAC-SHA-256: the message is fed incrementally, so callers can
/// MAC a multi-part preimage (domain tag, length prefixes, payload) without
/// concatenating it into a temporary buffer first. One instance is
/// single-use: construct, update*, finalize.
///
/// A freshly constructed instance holds the two keyed states — SHA-256
/// after the key^ipad and key^opad blocks — and nothing else, so a copy of
/// it MACs under the same key without touching the key again. KeyStore
/// keeps one such instance per process; each signature copies it and pays
/// only the frame and outer-digest compressions.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);

  void update(const std::uint8_t* data, std::size_t len) {
    inner_.update(data, len);
  }
  void update(ByteView data) { inner_.update(data); }
  void update_u32(std::uint32_t v) { inner_.update_u32(v); }

  Digest finalize();

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// Computes HMAC-SHA-256(key, message).
Digest hmac_sha256(ByteView key, ByteView message);

/// Derives a subkey: HMAC(key, label || u64(index)). Deterministic, so the
/// whole cluster key material is reproducible from one master seed.
Bytes derive_key(const Bytes& key, const std::string& label,
                 std::uint64_t index);

}  // namespace fastbft::crypto
