#pragma once

#include <cstdint>
#include <cstring>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

/// \file verify_cache.hpp
/// Bounded LRU memo for signature verification verdicts.
///
/// Certificate-heavy paths re-verify the same signatures over and over: a
/// commit certificate embeds the very ack signatures the replica already
/// verified one by one, the same vote records appear in every CertReq a
/// view-change leader assembles, and pipelined slots replay identical votes
/// across certificates. Each such check is an HMAC; memoizing the verdict
/// reduces the repeat cost to one hash-table probe — the key is a plain
/// struct, no hashing of the message is needed because the signature scheme
/// is hash-then-MAC and the caller already holds the message digest.
///
/// Key-change safety: every key embeds the KeyStore fingerprint (a digest
/// of the full key material), so a verdict cached against one set of keys
/// is unreachable under any other — rotated keys mean new fingerprints,
/// and stale entries simply age out of the LRU. Both positive and negative
/// verdicts are cached (both are deterministic functions of the key).
///
/// NOT thread-safe: intended as one instance per node, used only from that
/// node's event/delivery thread (the same discipline as the rest of the
/// engine state).

namespace fastbft::crypto {

/// Identity of one verification: (key material, signer, domain, message
/// digest, signature). The domain is stored verbatim in a fixed inline
/// array — protocol domain strings are short compile-time constants
/// (asserted ≤ kMaxDomain), so no two distinct domains can ever alias a
/// cache slot and no std::string is allocated per entry.
struct VerifyKey {
  static constexpr std::size_t kMaxDomain = 16;

  std::uint64_t keystore_fp = 0;
  std::array<char, kMaxDomain> domain{};
  std::uint8_t domain_len = 0;
  ProcessId signer = kNoProcess;
  Digest message_digest{};
  std::array<std::uint8_t, kDigestSize> sig{};

  static VerifyKey make(std::uint64_t keystore_fp, ProcessId signer,
                        const std::string& domain, const Digest& digest,
                        ByteView sig_bytes) {
    VerifyKey k;
    k.keystore_fp = keystore_fp;
    // Memoized domains must fit inline; all protocol domains do. An
    // oversized domain would silently weaken domain separation, so it is
    // a hard error rather than a truncation.
    FASTBFT_ASSERT(domain.size() <= kMaxDomain,
                   "memoized verification domain too long for VerifyKey");
    std::memcpy(k.domain.data(), domain.data(), domain.size());
    k.domain_len = static_cast<std::uint8_t>(domain.size());
    k.signer = signer;
    k.message_digest = digest;
    std::memcpy(k.sig.data(), sig_bytes.data(),
                sig_bytes.size() < kDigestSize ? sig_bytes.size()
                                               : kDigestSize);
    return k;
  }

  friend bool operator==(const VerifyKey&, const VerifyKey&) = default;
};

class VerificationCache {
 public:
  explicit VerificationCache(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The memoized verdict for `key`, refreshing its LRU position; nullopt
  /// on miss.
  std::optional<bool> lookup(const VerifyKey& key);

  /// Memoizes `verdict`, evicting the least-recently-used entry at
  /// capacity. Inserting an existing key refreshes it.
  void insert(const VerifyKey& key, bool verdict);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const VerifyKey& k) const {
      // The digest and signature are already uniform; mix their prefixes
      // with the scalar fields. No cryptographic hashing on the probe path.
      std::uint64_t d, s, dom;
      std::memcpy(&d, k.message_digest.data(), sizeof(d));
      std::memcpy(&s, k.sig.data(), sizeof(s));
      std::memcpy(&dom, k.domain.data(), sizeof(dom));
      std::uint64_t h = d ^ (s * 0x9e3779b97f4a7c15ULL) ^ k.keystore_fp ^
                        (dom + k.domain_len + k.signer);
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  using LruList = std::list<std::pair<VerifyKey, bool>>;

  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<VerifyKey, LruList::iterator, KeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace fastbft::crypto
