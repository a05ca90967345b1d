#pragma once

#include <map>
#include <optional>
#include <set>

#include "consensus/messages.hpp"
#include "consensus/selection.hpp"
#include "net/transport.hpp"

/// \file replica.hpp
/// Single-shot consensus engine implementing the paper's protocol: the
/// fast path (propose/ack, Section 3.1), the optional slow path (signed
/// acks + commit certificates, Appendix A) and the view-change protocol
/// (vote collection, selection, CertReq/CertAck, Section 3.2).
///
/// The replica is transport- and scheduler-agnostic: it reacts to
/// `on_message` and to `enter_view` notifications from an external view
/// synchronizer (see viewsync::Synchronizer), and emits messages through a
/// net::Transport. This keeps the protocol logic deterministic and
/// independently testable.

namespace fastbft::consensus {

struct ReplicaOptions {
  /// Enables the Appendix-A slow path (signed acks, commit certificates,
  /// Commit messages). Unset, it resolves to `cfg.t < cfg.f`: the slow
  /// path exists only for the generalised regime, and the vanilla
  /// Section-3 protocol (t = f, n >= 5f - 1) is safe and live without it.
  /// An explicit value wins.
  std::optional<bool> slow_path = std::nullopt;

  /// Ablation knob (bench_ablation): send CertReq to all n processes
  /// instead of the paper's minimal 2f + 1. Same liveness (f + 1 correct
  /// responders either way), more traffic, marginally faster certificate
  /// assembly under faults.
  bool cert_req_broadcast = false;

  /// Cap on messages buffered for views not yet entered. A Byzantine
  /// flooder spraying far-future views would otherwise grow the buffer
  /// without bound; at the cap, entries for the farthest-future view are
  /// evicted in favour of nearer ones (which the synchronizer will reach
  /// first), and messages farther than everything buffered are dropped.
  std::size_t max_future_buffered = 4096;

  /// External validity of a value the leader of view v proposes on its
  /// own, in view 1 or in a later view whose selection left the choice
  /// free. A correct replica acks a view-1 proposal, certifies a free
  /// CertReq, and counts a vote for a view-1 proposal only if
  /// `valid_value(x, leader(v))` holds. A value the selection rule forces is exempt: it was checked
  /// in the view that first proposed it, so every value that can decide
  /// passed the check for some leader of its instance. Null accepts every
  /// value (the paper's protocol). The SMR engine passes
  /// smr::authored_by: a batch's author header must name its proposer.
  ValueCheck valid_value = nullptr;
};

/// Everything a replica observed about one decision; surfaced to the
/// runtime layer for latency/metrics accounting.
struct DecisionRecord {
  Value value;
  View view = kNoView;
  bool via_slow_path = false;
};

class Replica {
 public:
  using DecideCallback = std::function<void(const DecisionRecord&)>;

  Replica(QuorumConfig cfg, ProcessId id, Value input,
          net::Transport& transport, crypto::Signer signer,
          crypto::Verifier verifier, LeaderFn leader_of,
          DecideCallback on_decide, ReplicaOptions options = {});

  /// Kicks off view 1: the first leader proposes its input immediately.
  void start();

  /// Handles one wire message. `from` is the authenticated channel
  /// identity (the simulated network guarantees it, matching the model).
  /// The payload is only viewed; it is copied iff it must be buffered for
  /// a future view (the cold path).
  /// Values are decoded against the one this replica holds (its vote,
  /// else its expected value, else its input), so messages repeating it
  /// allocate no value buffer.
  void on_message(ProcessId from, ByteView payload);

  /// A value the view-1 proposal is likely to carry when another replica
  /// leads (the SMR engine passes the leader's idle batch): until this
  /// replica votes, messages repeating it decode against it instead of
  /// against the input. Only a decode hint; it never changes what is
  /// accepted.
  void expect_value(Value hint) { expected_ = std::move(hint); }

  /// View-synchronizer notification. Views are monotone; stale calls are
  /// ignored.
  void enter_view(View v);

  // --- Introspection (tests, metrics) ---------------------------------------

  View view() const { return view_; }
  const std::optional<DecisionRecord>& decision() const { return decision_; }
  const std::optional<Vote>& current_vote() const { return vote_; }
  const std::optional<CommitCert>& latest_cc() const { return latest_cc_; }
  const QuorumConfig& config() const { return cfg_; }
  ProcessId id() const { return id_; }
  const Value& input() const { return input_; }

  /// Size in bytes of the largest progress certificate this replica has
  /// ever accepted in a proposal (experiment E4).
  std::size_t max_cert_bytes_seen() const { return max_cert_bytes_seen_; }

  /// Messages currently buffered for future views (bounded by
  /// ReplicaOptions::max_future_buffered).
  std::size_t future_buffered_total() const { return future_buffered_total_; }

 private:
  struct LeaderState {
    View v = kNoView;
    std::map<ProcessId, VoteRecord> votes;
    bool cert_requested = false;
    Value selected;
    std::map<ProcessId, crypto::Signature> cert_acks;
    bool proposed = false;
  };

  /// Quorum bookkeeping key. Value orders by content, so equal values in
  /// distinct buffers share one entry; the key only shares the buffer.
  using ValueKey = std::pair<View, Value>;

  /// Quorum bookkeeping per (view, value), one map node for all of it.
  struct Tally {
    std::vector<ProcessId> ackers;  ///< fast-path acks; sorted, distinct
    std::vector<SignatureEntry> ack_sigs;  ///< slow path; sorted by signer
    std::vector<ProcessId> commit_senders;  ///< valid Commits; sorted
    bool commit_sent = false;  ///< our own Commit went out
  };

  void handle(ProcessId from, const Message& msg);
  void handle_propose(ProcessId from, const ProposeMsg& msg);
  void handle_ack(ProcessId from, const AckMsg& msg);
  void handle_ack_sig(ProcessId from, const AckSigMsg& msg);
  void handle_commit(ProcessId from, const CommitMsg& msg);
  void handle_vote(ProcessId from, const VoteMsg& msg);
  void handle_cert_req(ProcessId from, const CertReqMsg& msg);
  void handle_cert_ack(ProcessId from, const CertAckMsg& msg);

  /// Leader: re-runs selection on the collected votes and, once it
  /// resolves, starts the certification round (or proposes directly when
  /// bounded certificates are disabled).
  void try_select();

  /// Leader: broadcasts propose(x, v, sigma, tau).
  void send_proposal(const Value& x, ProgressCert sigma);

  void send_vote_to(ProcessId leader, View v);
  /// options_.valid_value, accepting everything when unset.
  bool valid_value(const Value& x, ProcessId proposer) const;
  /// validate_vote_record, and a vote for a view-1 proposal must carry a
  /// valid value (a later view's proposal carries a progress certificate,
  /// which a correct replica signed only for a forced or valid value).
  bool valid_record(const VoteRecord& record, View v) const;
  void decide(const Value& x, View v, bool slow);
  void maybe_assemble_commit_cert(const ValueKey& key, Tally& tally);
  void adopt_cc(const CommitCert& cc);

  bool buffer_if_future(ProcessId from, const Message& msg, ByteView payload);
  const Value* known_value() const;
  void replay_buffered();

  /// One-slot memo of the shared (x, v) preimage digest: the proposal
  /// check, our signed ack, every peer's signed ack and the certificate
  /// entries for the accepted proposal all hash the same batch-sized
  /// preimage — compute it once per (view, value) instead of per message.
  const crypto::Digest& xv_digest(View v, const Value& x);

  static ValueKey key_of(View v, const Value& x) { return {v, x}; }

  QuorumConfig cfg_;
  ProcessId id_;
  Value input_;
  Value expected_;  ///< decode hint (expect_value); empty if unset
  net::Transport& transport_;
  crypto::Signer signer_;
  crypto::Verifier verifier_;
  LeaderFn leader_of_;
  DecideCallback on_decide_;
  ReplicaOptions options_;
  /// options_.slow_path resolved against the config.
  bool slow_path_;

  View view_ = 1;
  std::optional<Vote> vote_;
  std::optional<CommitCert> latest_cc_;
  std::optional<DecisionRecord> decision_;

  /// The view of the last accepted proposal (first one wins). Proposals
  /// are only accepted in the current view and views only grow, so the
  /// last one is all that needs remembering.
  View accepted_view_ = kNoView;

  std::map<ValueKey, Tally> tallies_;

  std::optional<LeaderState> leader_state_;

  /// Backing store of xv_digest().
  std::optional<std::pair<ValueKey, crypto::Digest>> xv_digest_memo_;

  /// The proposal we last broadcast as leader; its loopback is accepted by
  /// bitwise equality instead of re-verification.
  std::optional<ProposeMsg> sent_proposal_;

  /// Messages for views we have not entered yet, replayed on enter_view.
  std::map<View, std::vector<std::pair<ProcessId, Bytes>>> future_buffer_;
  std::size_t future_buffered_total_ = 0;

  std::size_t max_cert_bytes_seen_ = 0;
};

}  // namespace fastbft::consensus
