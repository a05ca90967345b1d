#include "crypto/signer.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastbft::crypto {

Signature::Signature(ByteView raw) : present(!raw.empty()) {
  FASTBFT_ASSERT(raw.empty() || raw.size() == kSignatureSize,
                 "a signature is empty or kSignatureSize bytes");
  std::copy(raw.begin(), raw.end(), bytes.begin());
}

std::optional<Signature> Signature::decode(Decoder& dec) {
  ByteView b = dec.bytes_view();
  if (!dec.ok() || (!b.empty() && b.size() != kSignatureSize)) {
    return std::nullopt;
  }
  return Signature(b);
}

KeyStore::KeyStore(std::uint64_t master_seed, std::uint32_t num_processes) {
  Encoder enc;
  enc.str("fastbft-master-seed");
  enc.u64(master_seed);
  Bytes master = sha256_bytes(enc.view());
  keys_.reserve(num_processes);
  keyed_macs_.reserve(num_processes);
  Sha256 fp;
  for (std::uint32_t i = 0; i < num_processes; ++i) {
    keys_.push_back(derive_key(master, "process-key", i));
    keyed_macs_.emplace_back(keys_.back());
    fp.update(keys_.back());
  }
  Digest fp_digest = fp.finalize();
  std::memcpy(&fingerprint_, fp_digest.data(), sizeof(fingerprint_));
}

const Bytes& KeyStore::secret_of(ProcessId id) const {
  FASTBFT_ASSERT(id < keys_.size(), "process id out of range in KeyStore");
  return keys_[id];
}

const HmacSha256& KeyStore::keyed_mac(ProcessId id) const {
  FASTBFT_ASSERT(id < keyed_macs_.size(), "process id out of range in KeyStore");
  return keyed_macs_[id];
}

namespace {

inline ByteView domain_view(const std::string& domain) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(domain.data()),
                  domain.size());
}

/// MACs the short signing frame: str(domain) ‖ digest. The digest is fixed
/// width, so the frame is injective without a second length prefix. Two
/// SHA-256 compressions on top of the precomputed key states (frame block,
/// outer digest block) regardless of how large the original message was —
/// that is the whole point of hash-then-MAC.
Digest mac_frame(const HmacSha256& keyed, const std::string& domain,
                 const Digest& digest) {
  HmacSha256 mac = keyed;
  mac.update_u32(static_cast<std::uint32_t>(domain.size()));
  mac.update(domain_view(domain));
  mac.update(digest.data(), digest.size());
  return mac.finalize();
}

}  // namespace

Digest message_digest(ByteView message) { return sha256(message); }

Signature Signer::sign(const std::string& domain, ByteView message) const {
  return sign_digest(domain, message_digest(message));
}

Signature Signer::sign_digest(const std::string& domain,
                              const Digest& digest) const {
  return Signature(mac_frame(keys_->keyed_mac(id_), domain, digest));
}

bool Verifier::verify_digest_uncached(ProcessId signer,
                                      const std::string& domain,
                                      const Digest& digest,
                                      const Signature& sig) const {
  Digest d = mac_frame(keys_->keyed_mac(signer), domain, digest);
  return bytes_equal(sig.view(), ByteView(d.data(), d.size()));
}

bool Verifier::verify(ProcessId signer, const std::string& domain,
                      ByteView message, const Signature& sig) const {
  return verify_digest(signer, domain, message_digest(message), sig);
}

bool Verifier::verify_digest(ProcessId signer, const std::string& domain,
                             const Digest& digest,
                             const Signature& sig) const {
  if (signer >= keys_->size() || sig.empty()) return false;
  return verify_digest_uncached(signer, domain, digest, sig);
}

bool Verifier::verify_digest_memo(ProcessId signer, const std::string& domain,
                                  const Digest& digest,
                                  const Signature& sig) const {
  if (signer >= keys_->size() || sig.empty()) return false;
  if (!cache_) {
    return verify_digest_uncached(signer, domain, digest, sig);
  }
  VerifyKey key = VerifyKey::make(keys_->fingerprint(), signer, domain,
                                  digest, sig.view());
  if (auto verdict = cache_->lookup(key)) return *verdict;
  bool ok = verify_digest_uncached(signer, domain, digest, sig);
  cache_->insert(key, ok);
  return ok;
}

}  // namespace fastbft::crypto
