#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/codec.hpp"
#include "common/types.hpp"
#include "common/value.hpp"
#include "consensus/config.hpp"
#include "crypto/signer.hpp"

/// \file types.hpp
/// Protocol artifacts of the paper's algorithm: votes, progress
/// certificates (Section 3.2) and commit certificates (Appendix A.1),
/// together with the canonical signing preimages and verification helpers.

namespace fastbft::consensus {

/// Deterministic view -> leader map ("agreed upon map leader(v)").
using LeaderFn = std::function<ProcessId(View)>;

/// Round-robin leader assignment: leader(v) = (v - 1) mod n, i.e. process 0
/// leads view 1. Equivalent (up to relabeling) to the paper's
/// p_((v mod n)+1).
LeaderFn round_robin_leader(std::uint32_t n);

/// Application validity of a value `proposer` puts forward on its own (see
/// ReplicaOptions::valid_value). A plain function: every slot of the SMR
/// engine copies it, and a pointer copies without allocating.
using ValueCheck = bool (*)(const Value& x, ProcessId proposer);

/// Signature of one process over some protocol statement.
struct SignatureEntry {
  ProcessId signer = kNoProcess;
  crypto::Signature sig;

  void encode(Encoder& enc) const;
  static std::optional<SignatureEntry> decode(Decoder& dec);
  friend bool operator==(const SignatureEntry&, const SignatureEntry&) = default;
};

/// Progress certificate sigma: f + 1 CertAck signatures proving that at
/// least one correct process checked that the certified value is safe in
/// the certified view. For view 1 the certificate is empty by convention
/// (any value is safe in view 1). The (value, view) pair it certifies is
/// carried by the surrounding message/vote, not duplicated here.
struct ProgressCert {
  std::vector<SignatureEntry> acks;

  bool empty() const { return acks.empty(); }
  std::size_t size_bytes() const;

  void encode(Encoder& enc) const;
  static std::optional<ProgressCert> decode(Decoder& dec);
  friend bool operator==(const ProgressCert&, const ProgressCert&) = default;
};

/// Commit certificate (slow path): ceil((n+f+1)/2) signed acks for the same
/// (value, view). Self-contained because it travels in votes and Commit
/// messages detached from its view context.
struct CommitCert {
  Value x;
  View v = kNoView;
  std::vector<SignatureEntry> sigs;

  void encode(Encoder& enc) const;
  static std::optional<CommitCert> decode(Decoder& dec);

  /// Compact forms used by CommitMsg, whose surrounding message already
  /// carries (x, v): only the signature entries go on the wire and the
  /// decoder reinstates the context. Votes keep the self-contained form.
  void encode_sigs_only(Encoder& enc) const;
  static std::optional<CommitCert> decode_sigs_only(Decoder& dec, Value x,
                                                    View v);

  friend bool operator==(const CommitCert&, const CommitCert&) = default;
};

/// A process's vote: the last proposal it acknowledged. `nil` (is_nil) if it
/// never acknowledged anything. tau is the proposing leader's signature,
/// sigma the progress certificate that accompanied the proposal.
struct Vote {
  bool is_nil = true;
  Value x;
  View u = kNoView;
  ProgressCert sigma;
  crypto::Signature tau;

  static Vote nil() { return Vote{}; }
  static Vote of(Value x, View u, ProgressCert sigma, crypto::Signature tau) {
    return Vote{false, std::move(x), u, std::move(sigma), std::move(tau)};
  }

  void encode(Encoder& enc) const;
  static std::optional<Vote> decode(Decoder& dec);
  friend bool operator==(const Vote&, const Vote&) = default;
};

/// Vote as collected/validated by a leader (and as embedded in CertReq).
struct VoteRecord {
  ProcessId voter = kNoProcess;
  Vote vote;
  std::optional<CommitCert> cc;
  crypto::Signature phi;  // voter's signature binding (vote, cc) to the view

  void encode(Encoder& enc) const;
  static std::optional<VoteRecord> decode(Decoder& dec);
  friend bool operator==(const VoteRecord&, const VoteRecord&) = default;
};

// --- Signing preimages (domain-separated canonical encodings) -------------

inline constexpr const char* kDomPropose = "propose";
inline constexpr const char* kDomAck = "ack";
inline constexpr const char* kDomCertAck = "certack";
inline constexpr const char* kDomVote = "vote";

/// Preimage of tau = sign_leader((propose, x, v)).
Bytes propose_preimage(const Value& x, View v);

/// Preimage of phi_ack = sign_q((ack, x, v)); also what commit-certificate
/// signatures cover.
Bytes ack_preimage(const Value& x, View v);

/// Preimage of phi_ca = sign_q((CertAck, x, v)); what progress-certificate
/// signatures cover.
Bytes certack_preimage(const Value& x, View v);

/// Preimage of phi_vote = sign_q((vote, vote, cc, v)) — binds the vote to
/// the destination view v so votes cannot be replayed across view changes.
Bytes vote_preimage(const Vote& vote, const std::optional<CommitCert>& cc,
                    View v);

/// In-place variant: appends the same canonical vote preimage to `enc`
/// (usually a pooled Encoder::scratch()) instead of materializing a fresh
/// buffer per sign/verify. The Bytes-returning form stays for callers
/// that store the preimage.
void vote_preimage(Encoder& enc, const Vote& vote,
                   const std::optional<CommitCert>& cc, View v);

/// Digest of the shared (x, v) preimage — propose, ack and certack
/// statements all canonicalize to the same bytes (the domain string keeps
/// their signatures apart), so ONE hash of the batch-sized value serves
/// the proposal check, every signed ack and every certificate entry for
/// that (x, v). The hot-path crypto lever; see crypto/signer.hpp.
crypto::Digest xv_preimage_digest(const Value& x, View v);

// --- Verification ----------------------------------------------------------

/// Checks sigma certifies (x, v): empty iff v == 1, otherwise >= f+1
/// signatures from distinct processes over certack_preimage(x, v).
bool verify_progress_cert(const crypto::Verifier& verifier,
                          const QuorumConfig& cfg, const Value& x, View v,
                          const ProgressCert& sigma);

/// Checks a commit certificate: >= commit_quorum signatures from distinct
/// processes over ack_preimage(cc.x, cc.v).
bool verify_commit_cert(const crypto::Verifier& verifier,
                        const QuorumConfig& cfg, const CommitCert& cc);

/// Full vote-record validation as performed by a view-v leader (and by
/// CertAck verifiers re-checking a CertReq):
///  * phi binds (vote, cc) to view v under the voter's key;
///  * a non-nil vote has u in [1, v), a valid tau from leader(u) and a valid
///    progress certificate for (x, u);
///  * an attached commit certificate verifies and has cc.v < v.
bool validate_vote_record(const crypto::Verifier& verifier,
                          const QuorumConfig& cfg, const LeaderFn& leader_of,
                          const VoteRecord& record, View v);

}  // namespace fastbft::consensus
