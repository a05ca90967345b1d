#include "consensus/types.hpp"

#include <set>

namespace fastbft::consensus {

LeaderFn round_robin_leader(std::uint32_t n) {
  return [n](View v) -> ProcessId {
    return static_cast<ProcessId>((v - 1) % n);
  };
}

// --- SignatureEntry ---------------------------------------------------------

void SignatureEntry::encode(Encoder& enc) const {
  enc.u32(signer);
  sig.encode(enc);
}

std::optional<SignatureEntry> SignatureEntry::decode(Decoder& dec) {
  SignatureEntry e;
  e.signer = dec.u32();
  auto sig = crypto::Signature::decode(dec);
  if (!sig) return std::nullopt;
  e.sig = std::move(*sig);
  return e;
}

namespace {

void encode_entries(Encoder& enc, const std::vector<SignatureEntry>& entries) {
  enc.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) e.encode(enc);
}

std::optional<std::vector<SignatureEntry>> decode_entries(Decoder& dec) {
  std::uint32_t count = dec.u32();
  if (!dec.ok() || count > 4096) return std::nullopt;
  std::vector<SignatureEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto e = SignatureEntry::decode(dec);
    if (!e) return std::nullopt;
    out.push_back(std::move(*e));
  }
  return out;
}

/// Counts entries with distinct signers whose signature over the statement
/// digested as `preimage_digest` verifies under `domain`. The preimage is
/// hashed once by the caller and shared across every entry; verdicts are
/// memoized because the same (signer, preimage, sig) entries recur across
/// certificates (commit certs embed previously seen acksigs; CertReq
/// replays the same vote records to 2f+1 validators).
std::uint32_t count_valid_distinct(const crypto::Verifier& verifier,
                                   const std::vector<SignatureEntry>& entries,
                                   const char* domain,
                                   const crypto::Digest& preimage_digest) {
  std::set<ProcessId> seen;
  for (const auto& e : entries) {
    if (seen.contains(e.signer)) continue;
    if (verifier.verify_digest_memo(e.signer, domain, preimage_digest,
                                    e.sig)) {
      seen.insert(e.signer);
    }
  }
  return static_cast<std::uint32_t>(seen.size());
}

}  // namespace

// --- ProgressCert -----------------------------------------------------------

std::size_t ProgressCert::size_bytes() const {
  Encoder enc = Encoder::scratch();
  encode(enc);
  return enc.size();
}

void ProgressCert::encode(Encoder& enc) const { encode_entries(enc, acks); }

std::optional<ProgressCert> ProgressCert::decode(Decoder& dec) {
  auto entries = decode_entries(dec);
  if (!entries) return std::nullopt;
  return ProgressCert{std::move(*entries)};
}

// --- CommitCert -------------------------------------------------------------

void CommitCert::encode(Encoder& enc) const {
  x.encode(enc);
  enc.u64(v);
  encode_entries(enc, sigs);
}

std::optional<CommitCert> CommitCert::decode(Decoder& dec) {
  CommitCert cc;
  auto x = Value::decode(dec);
  if (!x) return std::nullopt;
  cc.x = std::move(*x);
  cc.v = dec.u64();
  auto entries = decode_entries(dec);
  if (!entries) return std::nullopt;
  cc.sigs = std::move(*entries);
  return cc;
}

void CommitCert::encode_sigs_only(Encoder& enc) const {
  encode_entries(enc, sigs);
}

std::optional<CommitCert> CommitCert::decode_sigs_only(Decoder& dec, Value x,
                                                       View v) {
  auto entries = decode_entries(dec);
  if (!entries) return std::nullopt;
  CommitCert cc;
  cc.x = std::move(x);
  cc.v = v;
  cc.sigs = std::move(*entries);
  return cc;
}

// --- Vote -------------------------------------------------------------------

void Vote::encode(Encoder& enc) const {
  enc.boolean(is_nil);
  if (is_nil) return;
  x.encode(enc);
  enc.u64(u);
  sigma.encode(enc);
  tau.encode(enc);
}

std::optional<Vote> Vote::decode(Decoder& dec) {
  Vote vote;
  vote.is_nil = dec.boolean();
  if (!dec.ok()) return std::nullopt;
  if (vote.is_nil) return vote;
  auto x = Value::decode(dec);
  if (!x) return std::nullopt;
  vote.x = std::move(*x);
  vote.u = dec.u64();
  auto sigma = ProgressCert::decode(dec);
  if (!sigma) return std::nullopt;
  vote.sigma = std::move(*sigma);
  auto tau = crypto::Signature::decode(dec);
  if (!tau) return std::nullopt;
  vote.tau = std::move(*tau);
  return vote;
}

// --- VoteRecord -------------------------------------------------------------

void VoteRecord::encode(Encoder& enc) const {
  enc.u32(voter);
  vote.encode(enc);
  enc.boolean(cc.has_value());
  if (cc) cc->encode(enc);
  phi.encode(enc);
}

std::optional<VoteRecord> VoteRecord::decode(Decoder& dec) {
  VoteRecord r;
  r.voter = dec.u32();
  auto vote = Vote::decode(dec);
  if (!vote) return std::nullopt;
  r.vote = std::move(*vote);
  bool has_cc = dec.boolean();
  if (!dec.ok()) return std::nullopt;
  if (has_cc) {
    auto cc = CommitCert::decode(dec);
    if (!cc) return std::nullopt;
    r.cc = std::move(*cc);
  }
  auto phi = crypto::Signature::decode(dec);
  if (!phi) return std::nullopt;
  r.phi = std::move(*phi);
  return r;
}

// --- Preimages --------------------------------------------------------------

namespace {
void xv_preimage(Encoder& enc, const Value& x, View v) {
  x.encode(enc);
  enc.u64(v);
}

Bytes xv_preimage(const Value& x, View v) {
  Encoder enc(x.size() + 12);
  xv_preimage(enc, x, v);
  return std::move(enc).take();
}
}  // namespace

Bytes propose_preimage(const Value& x, View v) { return xv_preimage(x, v); }
Bytes ack_preimage(const Value& x, View v) { return xv_preimage(x, v); }
Bytes certack_preimage(const Value& x, View v) { return xv_preimage(x, v); }

void vote_preimage(Encoder& enc, const Vote& vote,
                   const std::optional<CommitCert>& cc, View v) {
  vote.encode(enc);
  enc.boolean(cc.has_value());
  if (cc) cc->encode(enc);
  enc.u64(v);
}

Bytes vote_preimage(const Vote& vote, const std::optional<CommitCert>& cc,
                    View v) {
  Encoder enc;
  vote_preimage(enc, vote, cc, v);
  return std::move(enc).take();
}

crypto::Digest xv_preimage_digest(const Value& x, View v) {
  // Streams xv_preimage's bytes — u32 length, value, u64 view — into the
  // hash instead of copying the value into a scratch buffer first.
  crypto::Sha256 hash;
  hash.update_u32(static_cast<std::uint32_t>(x.size()));
  hash.update(x.bytes());
  std::uint8_t view_le[8];
  for (int i = 0; i < 8; ++i) {
    view_le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  hash.update(view_le, sizeof view_le);
  return hash.finalize();
}

// --- Verification -----------------------------------------------------------

bool verify_progress_cert(const crypto::Verifier& verifier,
                          const QuorumConfig& cfg, const Value& x, View v,
                          const ProgressCert& sigma) {
  if (v == 1) return sigma.empty();
  return count_valid_distinct(verifier, sigma.acks, kDomCertAck,
                              xv_preimage_digest(x, v)) >= cfg.cert_quorum();
}

bool verify_commit_cert(const crypto::Verifier& verifier,
                        const QuorumConfig& cfg, const CommitCert& cc) {
  if (cc.v == kNoView || cc.x.empty()) return false;
  return count_valid_distinct(verifier, cc.sigs, kDomAck,
                              xv_preimage_digest(cc.x, cc.v)) >=
         cfg.commit_quorum();
}

bool validate_vote_record(const crypto::Verifier& verifier,
                          const QuorumConfig& cfg, const LeaderFn& leader_of,
                          const VoteRecord& record, View v) {
  if (record.voter >= cfg.n) return false;
  {
    // Memoized: the leader validates each vote on arrival and every
    // CertReq receiver re-validates the same records.
    Encoder preimage = Encoder::scratch();
    vote_preimage(preimage, record.vote, record.cc, v);
    if (!verifier.verify_digest_memo(record.voter, kDomVote,
                                     crypto::message_digest(preimage.view()),
                                     record.phi)) {
      return false;
    }
  }
  const Vote& vote = record.vote;
  if (!vote.is_nil) {
    if (vote.u < 1 || vote.u >= v) return false;
    if (vote.x.empty()) return false;
    if (!verifier.verify_digest_memo(leader_of(vote.u), kDomPropose,
                                     xv_preimage_digest(vote.x, vote.u),
                                     vote.tau)) {
      return false;
    }
    if (!verify_progress_cert(verifier, cfg, vote.x, vote.u, vote.sigma)) {
      return false;
    }
  }
  if (record.cc) {
    if (record.cc->v >= v) return false;
    if (!verify_commit_cert(verifier, cfg, *record.cc)) return false;
  }
  return true;
}

}  // namespace fastbft::consensus
