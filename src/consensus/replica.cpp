#include "consensus/replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace fastbft::consensus {

namespace {
/// Adds `id` to the sorted, duplicate-free `ids`.
void add_sender(std::vector<ProcessId>& ids, ProcessId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) ids.insert(it, id);
}

/// Adds a signed ack to the signer-sorted `sigs`; the first one counts.
void add_ack_sig(std::vector<SignatureEntry>& sigs, ProcessId signer,
                 const crypto::Signature& sig) {
  auto it = std::lower_bound(
      sigs.begin(), sigs.end(), signer,
      [](const SignatureEntry& e, ProcessId id) { return e.signer < id; });
  if (it != sigs.end() && it->signer == signer) return;
  sigs.insert(it, SignatureEntry{signer, sig});
}

/// Log component, formatted only when a line is actually written.
auto who(ProcessId id) {
  return [id] { return "replica-" + std::to_string(id); };
}
}  // namespace

Replica::Replica(QuorumConfig cfg, ProcessId id, Value input,
                 net::Transport& transport, crypto::Signer signer,
                 crypto::Verifier verifier, LeaderFn leader_of,
                 DecideCallback on_decide, ReplicaOptions options)
    : cfg_(cfg),
      id_(id),
      input_(std::move(input)),
      transport_(transport),
      signer_(std::move(signer)),
      verifier_(std::move(verifier)),
      leader_of_(std::move(leader_of)),
      on_decide_(std::move(on_decide)),
      options_(options),
      slow_path_(options.slow_path.value_or(cfg.t < cfg.f)) {
  FASTBFT_ASSERT(!input_.empty(), "consensus inputs must be non-empty");
  FASTBFT_ASSERT(id_ < cfg_.n, "replica id out of range");
}

void Replica::start() {
  if (leader_of_(1) == id_) {
    log_debug(who(id_), [&] {
      return "view 1 leader proposing input " + input_.to_string();
    });
    send_proposal(input_, ProgressCert{});
  }
}

const Value* Replica::known_value() const {
  if (vote_) return &vote_->x;
  return expected_.empty() ? &input_ : &expected_;
}

void Replica::on_message(ProcessId from, ByteView payload) {
  auto parsed = parse_message(payload, known_value());
  if (!parsed) {
    log_debug(who(id_), "dropping malformed payload");
    return;
  }
  if (buffer_if_future(from, *parsed, payload)) return;
  handle(from, *parsed);
}

bool Replica::buffer_if_future(ProcessId from, const Message& msg,
                               ByteView payload) {
  // Acks, signed acks and Commits are decision evidence: they remain
  // meaningful for views we already left or have not reached, so they are
  // never buffered. Everything else is view-scoped.
  if (std::holds_alternative<AckMsg>(msg) ||
      std::holds_alternative<AckSigMsg>(msg) ||
      std::holds_alternative<CommitMsg>(msg)) {
    return false;
  }
  View v = message_view(msg);
  if (v <= view_) return false;
  while (future_buffered_total_ >= options_.max_future_buffered) {
    // Full. Evict from the farthest-future view — the synchronizer reaches
    // nearer views first, so their messages are the ones worth keeping. A
    // message farther than everything buffered is dropped outright.
    auto farthest = future_buffer_.rbegin();
    if (farthest == future_buffer_.rend() || farthest->first <= v) {
      return true;  // drop the incoming message
    }
    farthest->second.pop_back();
    --future_buffered_total_;
    if (farthest->second.empty()) {
      future_buffer_.erase(std::prev(future_buffer_.end()));
    }
  }
  future_buffer_[v].emplace_back(from, payload.to_bytes());
  ++future_buffered_total_;
  return true;
}

void Replica::replay_buffered() {
  // Drop buffers for views we skipped past.
  while (!future_buffer_.empty() && future_buffer_.begin()->first < view_) {
    future_buffered_total_ -= future_buffer_.begin()->second.size();
    future_buffer_.erase(future_buffer_.begin());
  }
  auto it = future_buffer_.find(view_);
  if (it == future_buffer_.end()) return;
  std::vector<std::pair<ProcessId, Bytes>> pending = std::move(it->second);
  future_buffered_total_ -= pending.size();
  future_buffer_.erase(it);
  for (auto& [from, payload] : pending) {
    auto parsed = parse_message(payload, known_value());
    if (parsed) handle(from, *parsed);
  }
}

void Replica::handle(ProcessId from, const Message& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ProposeMsg>) {
          handle_propose(from, m);
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          handle_ack(from, m);
        } else if constexpr (std::is_same_v<T, AckSigMsg>) {
          handle_ack_sig(from, m);
        } else if constexpr (std::is_same_v<T, CommitMsg>) {
          handle_commit(from, m);
        } else if constexpr (std::is_same_v<T, VoteMsg>) {
          handle_vote(from, m);
        } else if constexpr (std::is_same_v<T, CertReqMsg>) {
          handle_cert_req(from, m);
        } else if constexpr (std::is_same_v<T, CertAckMsg>) {
          handle_cert_ack(from, m);
        }
      },
      msg);
}

void Replica::enter_view(View v) {
  if (v <= view_) return;
  log_debug(who(id_), [v] { return "entering view " + std::to_string(v); });
  view_ = v;
  leader_state_.reset();

  ProcessId leader = leader_of_(v);
  if (leader == id_) {
    leader_state_.emplace();
    leader_state_->v = v;
  }
  send_vote_to(leader, v);
  replay_buffered();
}

bool Replica::valid_value(const Value& x, ProcessId proposer) const {
  return !options_.valid_value || options_.valid_value(x, proposer);
}

bool Replica::valid_record(const VoteRecord& record, View v) const {
  if (!validate_vote_record(verifier_, cfg_, leader_of_, record, v)) {
    return false;
  }
  const Vote& vote = record.vote;
  return vote.is_nil || vote.u > 1 || valid_value(vote.x, leader_of_(1));
}

void Replica::send_vote_to(ProcessId leader, View v) {
  VoteMsg msg;
  msg.v = v;
  msg.record.voter = id_;
  msg.record.vote = vote_.value_or(Vote::nil());
  if (slow_path_ && latest_cc_) msg.record.cc = latest_cc_;
  Encoder preimage = Encoder::scratch();
  vote_preimage(preimage, msg.record.vote, msg.record.cc, v);
  msg.record.phi = signer_.sign(kDomVote, preimage.view());
  transport_.send_message(leader, msg);
}

// --- Fast path --------------------------------------------------------------

const crypto::Digest& Replica::xv_digest(View v, const Value& x) {
  if (!xv_digest_memo_ || xv_digest_memo_->first.first != v ||
      xv_digest_memo_->first.second != x) {
    xv_digest_memo_.emplace(key_of(v, x), xv_preimage_digest(x, v));
  }
  return xv_digest_memo_->second;
}

void Replica::send_proposal(const Value& x, ProgressCert sigma) {
  ProposeMsg msg;
  msg.v = view_;
  msg.x = x;
  msg.sigma = std::move(sigma);
  msg.tau = signer_.sign_digest(kDomPropose, xv_digest(view_, x));
  sent_proposal_ = msg;
  transport_.broadcast_message(msg);
}

void Replica::handle_propose(ProcessId from, const ProposeMsg& msg) {
  if (msg.v != view_) return;  // future views buffered, stale ones stale
  if (from != leader_of_(msg.v)) return;
  if (accepted_view_ == msg.v) return;
  if (msg.x.empty()) return;
  // A later view's proposal is vouched for by its progress certificate.
  if (msg.v == 1 && !valid_value(msg.x, from)) return;
  // Our own broadcast looping back needs no re-verification — but only if
  // it is bit-identical to what we actually sent (a memcmp, not an HMAC);
  // anything else on the self channel takes the full verification path.
  bool own_loopback = from == id_ && sent_proposal_ && msg == *sent_proposal_;
  if (!own_loopback) {
    if (!verifier_.verify_digest(from, kDomPropose, xv_digest(msg.v, msg.x),
                                 msg.tau)) {
      return;
    }
    if (!verify_progress_cert(verifier_, cfg_, msg.x, msg.v, msg.sigma)) {
      return;
    }
  }

  accepted_view_ = msg.v;
  max_cert_bytes_seen_ = std::max(max_cert_bytes_seen_, msg.sigma.size_bytes());

  // Adopt the vote before acknowledging (Section 3.2: the vote is the last
  // proposal this process acknowledged).
  vote_ = Vote::of(msg.x, msg.v, msg.sigma, msg.tau);

  AckMsg ack;
  ack.v = msg.v;
  ack.x = msg.x;
  transport_.broadcast_message(ack);

  if (slow_path_) {
    AckSigMsg sig;
    sig.v = msg.v;
    sig.x = msg.x;
    sig.phi_ack = signer_.sign_digest(kDomAck, xv_digest(msg.v, msg.x));
    // Our own signature goes straight into the collection — the loopback
    // copy is ignored in handle_ack_sig, so a forged self acksig can
    // never displace the genuine one. Ours may be the signature that
    // completes the commit quorum (peers' acksigs can arrive before a
    // delayed proposal does), so check for assembly here too.
    auto key = key_of(msg.v, msg.x);
    Tally& tally = tallies_[key];
    add_ack_sig(tally.ack_sigs, id_, sig.phi_ack);
    transport_.broadcast_message(sig);
    maybe_assemble_commit_cert(key, tally);
  }
}

void Replica::handle_ack(ProcessId from, const AckMsg& msg) {
  if (decision_) return;  // quorum bookkeeping is over
  if (msg.x.empty() || msg.v == kNoView) return;
  auto& ackers = tallies_[key_of(msg.v, msg.x)].ackers;
  if (ackers.empty()) ackers.reserve(cfg_.n);  // one allocation per tally
  add_sender(ackers, from);
  if (ackers.size() >= cfg_.fast_quorum()) {
    decide(msg.x, msg.v, /*slow=*/false);
  }
}

// --- Slow path (Appendix A) -------------------------------------------------

void Replica::handle_ack_sig(ProcessId from, const AckSigMsg& msg) {
  if (!slow_path_) return;
  // Our own signature was recorded at signing time (handle_propose); the
  // loopback — or anything forged onto the self channel — is ignored.
  if (from == id_) return;
  if (msg.x.empty() || msg.v == kNoView) return;
  auto key = key_of(msg.v, msg.x);
  // Collection continues even after a fast-path decision: a peer that saw
  // fewer than n - t acks (more than t faults) can only decide through
  // commit_quorum() Commits, and ours may be one of them. The certificate
  // is broadcast exactly once, so once OUR Commit went out, further signed
  // acks for this (view, value) buy nothing: skip their HMACs. Peers'
  // signatures check against the shared (x, v) digest, hashed once per
  // proposal instead of once per message. Only a verified signature may
  // create a tally.
  auto it = tallies_.find(key);
  if (it != tallies_.end() && it->second.commit_sent) return;
  if (!verifier_.verify_digest(from, kDomAck, xv_digest(msg.v, msg.x),
                               msg.phi_ack)) {
    return;
  }
  if (it == tallies_.end()) it = tallies_.try_emplace(key).first;
  add_ack_sig(it->second.ack_sigs, from, msg.phi_ack);
  maybe_assemble_commit_cert(key, it->second);
}

void Replica::maybe_assemble_commit_cert(const ValueKey& key, Tally& tally) {
  const auto& sigs = tally.ack_sigs;
  if (sigs.size() < cfg_.commit_quorum()) return;
  if (tally.commit_sent) return;
  tally.commit_sent = true;

  CommitCert cc;
  cc.v = key.first;
  cc.x = key.second;
  // The lowest commit_quorum() signers, as certificates list them.
  cc.sigs.assign(sigs.begin(), sigs.begin() + cfg_.commit_quorum());
  adopt_cc(cc);

  CommitMsg msg;
  msg.v = cc.v;
  msg.x = cc.x;
  msg.cc = std::move(cc);
  transport_.broadcast_message(msg);
}

void Replica::adopt_cc(const CommitCert& cc) {
  if (!latest_cc_ || cc.v > latest_cc_->v) latest_cc_ = cc;
}

void Replica::handle_commit(ProcessId from, const CommitMsg& msg) {
  if (!slow_path_) return;
  if (decision_) return;  // see handle_ack_sig
  if (msg.cc.x != msg.x || msg.cc.v != msg.v) return;
  if (!verify_commit_cert(verifier_, cfg_, msg.cc)) return;
  adopt_cc(msg.cc);
  auto& senders = tallies_[key_of(msg.v, msg.x)].commit_senders;
  add_sender(senders, from);
  if (senders.size() >= cfg_.commit_quorum()) {
    decide(msg.x, msg.v, /*slow=*/true);
  }
}

// --- View change ------------------------------------------------------------

void Replica::handle_vote(ProcessId from, const VoteMsg& msg) {
  if (msg.v != view_ || !leader_state_) return;
  FASTBFT_ASSERT(leader_of_(msg.v) == id_, "leader state in a foreign view");
  if (leader_state_->proposed || leader_state_->cert_requested) return;
  if (msg.record.voter != from) return;
  if (!slow_path_ && msg.record.cc) return;
  if (!valid_record(msg.record, msg.v)) {
    log_debug(who(id_), [from] {
      return "rejecting invalid vote from " + std::to_string(from);
    });
    return;
  }
  leader_state_->votes.insert({from, msg.record});
  try_select();
}

void Replica::try_select() {
  FASTBFT_ASSERT(leader_state_.has_value(), "try_select without leadership");
  LeaderState& st = *leader_state_;
  if (st.cert_requested) return;

  std::vector<VoteRecord> records;
  records.reserve(st.votes.size());
  for (const auto& [voter, record] : st.votes) records.push_back(record);

  SelectionResult result = run_selection(cfg_, records, leader_of_);
  switch (result.kind) {
    case SelectionResult::Kind::NeedMoreVotes:
      return;
    case SelectionResult::Kind::Forced:
      st.selected = result.value;
      break;
    case SelectionResult::Kind::Free:
      st.selected = input_;
      break;
  }
  st.cert_requested = true;

  log_debug(who(id_), [&] {
    return "view " + std::to_string(view_) + " selected " +
           st.selected.to_string() +
           (result.equivocation_detected
                ? " (equivocation by " + std::to_string(result.equivocator) +
                      ")"
                : "");
  });

  CertReqMsg req;
  req.v = view_;
  req.x = st.selected;
  req.votes = std::move(records);
  SharedBytes payload = req.serialize();
  if (options_.cert_req_broadcast) {
    transport_.broadcast(payload);
    return;
  }
  // At least 2f+1 distinct targets guarantee f+1 correct CertAck
  // responders. Spread from our own id so repeated leaders do not always
  // load the same prefix of the cluster.
  for (std::uint32_t k = 0; k < cfg_.cert_req_targets(); ++k) {
    transport_.send((id_ + k) % cfg_.n, payload);
  }
}

void Replica::handle_cert_req(ProcessId from, const CertReqMsg& msg) {
  if (msg.v != view_) return;
  if (from != leader_of_(msg.v)) return;
  if (msg.x.empty()) return;

  std::set<ProcessId> voters;
  for (const auto& record : msg.votes) {
    if (!voters.insert(record.voter).second) return;  // duplicate voter
    if (!valid_record(record, msg.v)) return;
  }
  if (!selection_admits(cfg_, msg.votes, leader_of_, msg.x,
                        valid_value(msg.x, from))) {
    log_debug(who(id_), [&] {
      return "CertReq from " + std::to_string(from) + " does not justify " +
             msg.x.to_string();
    });
    return;
  }

  CertAckMsg ack;
  ack.v = msg.v;
  ack.x = msg.x;
  ack.phi_ca = signer_.sign_digest(kDomCertAck, xv_digest(msg.v, msg.x));
  transport_.send_message(from, ack);
}

void Replica::handle_cert_ack(ProcessId from, const CertAckMsg& msg) {
  if (msg.v != view_ || !leader_state_) return;
  LeaderState& st = *leader_state_;
  if (!st.cert_requested || st.proposed) return;
  if (msg.x != st.selected) return;
  if (!verifier_.verify_digest(from, kDomCertAck, xv_digest(msg.v, msg.x),
                               msg.phi_ca)) {
    return;
  }
  st.cert_acks.emplace(from, msg.phi_ca);
  if (st.cert_acks.size() < cfg_.cert_quorum()) return;

  ProgressCert sigma;
  for (const auto& [signer, sig] : st.cert_acks) {
    sigma.acks.push_back(SignatureEntry{signer, sig});
    if (sigma.acks.size() == cfg_.cert_quorum()) break;
  }
  st.proposed = true;
  send_proposal(st.selected, std::move(sigma));
}

// --- Decision ---------------------------------------------------------------

void Replica::decide(const Value& x, View v, bool slow) {
  if (decision_) return;
  decision_ = DecisionRecord{x, v, slow};
  log_info(who(id_), [&] {
    return "decided " + x.to_string() + " in view " + std::to_string(v) +
           (slow ? " (slow path)" : "");
  });
  if (on_decide_) on_decide_(*decision_);
}

}  // namespace fastbft::consensus
