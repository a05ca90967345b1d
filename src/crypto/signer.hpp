#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/hmac.hpp"
#include "crypto/verify_cache.hpp"

/// \file signer.hpp
/// Signature scheme used by the protocols.
///
/// Substitution note: the paper assumes standard digital
/// signatures with a PKI. This library implements *simulation signatures*:
/// a cluster `KeyStore` derives one 32-byte secret per process from a master
/// seed, and a signature is HMAC-SHA-256(secret_i, domain ‖ SHA-256(message))
/// — hash-then-MAC, the same shape as real sign-the-digest schemes.
/// The KeyStore keys one HMAC per process once, when it is built (the
/// SHA-256 states after the ipad and opad key blocks); signing and
/// verification copy that keyed state, so a MAC over the short signing
/// frame costs two SHA-256 compressions. Within the simulated
/// adversary model signatures are unforgeable by construction — none of the
/// implemented Byzantine behaviours fabricate another process's signature,
/// mirroring the paper's computationally bounded adversary. Signature size
/// (32 bytes) and constant-time verification cost are realistic, so the
/// certificate-size experiment (E4) is meaningful.
///
/// Hash-then-MAC is also the zero-copy hot path's crypto lever: the large
/// preimage (a command batch plus view) is hashed ONCE and the 32-byte
/// digest is shared across every signer of the same statement — n signed
/// acks over one value cost one preimage hash plus n short MACs instead of
/// n full-length MACs, and certificate verification reuses the digest for
/// every entry (see Digest-level APIs below and the VerificationCache).
///
/// Swapping in a real scheme (e.g. Ed25519) only requires another
/// implementation of Signer/Verifier.

namespace fastbft::crypto {

inline constexpr std::size_t kSignatureSize = kDigestSize;

/// A detached signature, held inline: copying or decoding one never
/// touches the heap. Default-constructed it is empty, meaning "none" (a
/// nil vote's tau). On the wire it is a length-prefixed byte string, and
/// decoding accepts only the lengths 0 (none) and kSignatureSize.
struct Signature {
  std::array<std::uint8_t, kSignatureSize> bytes{};
  bool present = false;

  Signature() = default;
  explicit Signature(const Digest& mac) : bytes(mac), present(true) {}
  /// From raw bytes, which must be empty or kSignatureSize long.
  explicit Signature(ByteView raw);

  bool empty() const { return !present; }
  ByteView view() const {
    return present ? ByteView(bytes.data(), bytes.size()) : ByteView();
  }

  void encode(Encoder& enc) const { enc.bytes(view()); }
  static std::optional<Signature> decode(Decoder& dec);

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Holds the per-cluster key material. One instance is shared by all
/// simulated processes of a cluster (the "trusted setup").
class KeyStore {
 public:
  KeyStore(std::uint64_t master_seed, std::uint32_t num_processes);

  std::uint32_t size() const { return static_cast<std::uint32_t>(keys_.size()); }
  const Bytes& secret_of(ProcessId id) const;

  /// HMAC keyed with `secret_of(id)`, computed once at construction. Copy
  /// it, feed the message and finalize the copy.
  const HmacSha256& keyed_mac(ProcessId id) const;

  /// Cheap identity of this key material (digest of all secrets). Baked
  /// into every VerificationCache key, so cached verdicts are unreachable
  /// the moment a verifier runs against different keys.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::vector<Bytes> keys_;
  std::vector<HmacSha256> keyed_macs_;
  std::uint64_t fingerprint_ = 0;
};

/// The hash half of hash-then-MAC: what sign/verify reduce a message to
/// before keying. Compute it once per message body and reuse it across
/// the Digest-level APIs when many signatures cover the same statement.
Digest message_digest(ByteView message);

/// Signing handle bound to one process identity.
class Signer {
 public:
  Signer(std::shared_ptr<const KeyStore> keys, ProcessId id)
      : keys_(std::move(keys)), id_(id) {}

  ProcessId id() const { return id_; }

  /// Signs `message` under a domain-separation string; the domain prevents
  /// cross-protocol replay of signatures (e.g. a VOTE signature being
  /// presented as a CERTACK). Equivalent to sign_digest(domain,
  /// message_digest(message)).
  Signature sign(const std::string& domain, ByteView message) const;

  /// Digest-level signing: the caller already hashed the message (and may
  /// share that digest across several signatures over the same statement).
  Signature sign_digest(const std::string& domain, const Digest& digest) const;

 private:
  std::shared_ptr<const KeyStore> keys_;
  ProcessId id_;
};

/// Verification handle; any process can verify any other process's
/// signatures. Optionally backed by a shared VerificationCache: verifiers
/// of all pipelined slots on one node share it, so a signature re-presented
/// in another certificate (or another slot) costs one hash-table probe
/// instead of an HMAC. The cache key covers the signer's secret, so
/// verdicts can never survive a key change.
class Verifier {
 public:
  explicit Verifier(std::shared_ptr<const KeyStore> keys,
                    std::shared_ptr<VerificationCache> cache = nullptr)
      : keys_(std::move(keys)), cache_(std::move(cache)) {}

  /// Plain verification (hashes the message, then one short MAC).
  bool verify(ProcessId signer, const std::string& domain, ByteView message,
              const Signature& sig) const;

  /// Digest-level verification: the caller hashed the message once and
  /// shares the digest across all signatures covering the same statement.
  bool verify_digest(ProcessId signer, const std::string& domain,
                     const Digest& digest, const Signature& sig) const;

  /// Memoized digest-level verification: consults/updates the
  /// VerificationCache when one is attached (falls back to verify_digest
  /// otherwise). Use on certificate paths, where the same signatures are
  /// re-presented across certificates, CertReq replays and pipelined
  /// slots. The memo key embeds the KeyStore fingerprint, so a verdict
  /// can never outlive a key change.
  bool verify_digest_memo(ProcessId signer, const std::string& domain,
                          const Digest& digest, const Signature& sig) const;

  const std::shared_ptr<VerificationCache>& cache() const { return cache_; }

 private:
  bool verify_digest_uncached(ProcessId signer, const std::string& domain,
                              const Digest& digest,
                              const Signature& sig) const;

  std::shared_ptr<const KeyStore> keys_;
  std::shared_ptr<VerificationCache> cache_;
};

}  // namespace fastbft::crypto
