#include <gtest/gtest.h>

#include "adversary/recording_transport.hpp"
#include "consensus/replica.hpp"

/// Hand-cranked unit tests of the replica engine: messages are crafted and
/// delivered explicitly, with no network or synchronizer in the loop.

namespace fastbft::consensus {
namespace {

using adversary::RecordingTransport;

class ReplicaTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 4;  // f = t = 1
  QuorumConfig cfg_ = QuorumConfig::create(kN, 1, 1);
  std::shared_ptr<const crypto::KeyStore> keys_ =
      std::make_shared<const crypto::KeyStore>(17, kN);
  crypto::Verifier verifier_{keys_};
  LeaderFn leader_ = round_robin_leader(kN);
  Value x_ = Value::of_string("X");
  Value y_ = Value::of_string("Y");

  RecordingTransport transport_{1, kN};
  std::optional<DecisionRecord> decided_;

  std::unique_ptr<Replica> make_replica(ProcessId id, Value input,
                                        bool slow_path = true) {
    return std::make_unique<Replica>(
        cfg_, id, std::move(input), transport_, crypto::Signer(keys_, id),
        verifier_, leader_,
        [this](const DecisionRecord& r) { decided_ = r; },
        ReplicaOptions{.slow_path = slow_path});
  }

  crypto::Signature sign(ProcessId p, const char* dom, const Bytes& m) {
    return crypto::Signer(keys_, p).sign(dom, m);
  }

  Bytes propose_wire(ProcessId proposer, const Value& x, View v,
                     ProgressCert sigma = {}) {
    ProposeMsg m;
    m.v = v;
    m.x = x;
    m.sigma = std::move(sigma);
    m.tau = sign(proposer, kDomPropose, propose_preimage(x, v));
    return m.serialize();
  }

  Bytes ack_wire(const Value& x, View v) { return AckMsg{v, x}.serialize(); }

  Bytes vote_wire(ProcessId voter, View v, Vote vote = Vote::nil(),
                  std::optional<CommitCert> cc = std::nullopt) {
    VoteMsg m;
    m.v = v;
    m.record.voter = voter;
    m.record.vote = std::move(vote);
    m.record.cc = std::move(cc);
    m.record.phi =
        sign(voter, kDomVote, vote_preimage(m.record.vote, m.record.cc, v));
    return m.serialize();
  }

  /// Messages of `tag` currently in the outbox (without clearing others).
  std::vector<net::Envelope> sent_of(std::uint8_t tag) {
    std::vector<net::Envelope> out;
    for (const auto& env : transport_.peek_outbox()) {
      if (!env.payload.empty() && env.payload[0] == tag) out.push_back(env);
    }
    return out;
  }
};

// --- Fast path ------------------------------------------------------------------

TEST_F(ReplicaTest, AcksValidProposal) {
  auto r = make_replica(1, y_);
  r->on_message(0, propose_wire(0, x_, 1));
  auto acks = sent_of(net::tags::kAck);
  ASSERT_EQ(acks.size(), kN);  // broadcast to everyone including self
  ASSERT_TRUE(r->current_vote().has_value());
  EXPECT_EQ(r->current_vote()->x, x_);
  EXPECT_EQ(r->current_vote()->u, 1u);
}

TEST_F(ReplicaTest, IgnoresProposalFromNonLeader) {
  auto r = make_replica(1, y_);
  r->on_message(2, propose_wire(2, x_, 1));
  EXPECT_TRUE(sent_of(net::tags::kAck).empty());
  EXPECT_FALSE(r->current_vote().has_value());
}

TEST_F(ReplicaTest, IgnoresProposalWithBadSignature) {
  auto r = make_replica(1, y_);
  ProposeMsg m;
  m.v = 1;
  m.x = x_;
  m.tau = sign(2, kDomPropose, propose_preimage(x_, 1));  // wrong signer
  r->on_message(0, m.serialize());
  EXPECT_TRUE(sent_of(net::tags::kAck).empty());
}

TEST_F(ReplicaTest, AcksOnlyFirstProposalInView) {
  auto r = make_replica(1, y_);
  r->on_message(0, propose_wire(0, x_, 1));
  std::size_t after_first = transport_.peek_outbox().size();
  r->on_message(0, propose_wire(0, y_, 1));  // equivocation: second proposal
  EXPECT_EQ(transport_.peek_outbox().size(), after_first);
  EXPECT_EQ(r->current_vote()->x, x_);
}

TEST_F(ReplicaTest, DecidesOnFastQuorumAcks) {
  auto r = make_replica(1, y_);
  r->on_message(0, ack_wire(x_, 1));
  r->on_message(2, ack_wire(x_, 1));
  EXPECT_FALSE(decided_.has_value());
  r->on_message(3, ack_wire(x_, 1));  // third of n - t = 3
  ASSERT_TRUE(decided_.has_value());
  EXPECT_EQ(decided_->value, x_);
  EXPECT_EQ(decided_->view, 1u);
  EXPECT_FALSE(decided_->via_slow_path);
}

TEST_F(ReplicaTest, DuplicateAckersDoNotCount) {
  auto r = make_replica(1, y_);
  r->on_message(0, ack_wire(x_, 1));
  r->on_message(0, ack_wire(x_, 1));
  r->on_message(0, ack_wire(x_, 1));
  EXPECT_FALSE(decided_.has_value());
}

TEST_F(ReplicaTest, MixedValueAcksDoNotCount) {
  auto r = make_replica(1, y_);
  r->on_message(0, ack_wire(x_, 1));
  r->on_message(2, ack_wire(y_, 1));
  r->on_message(3, ack_wire(x_, 1));
  EXPECT_FALSE(decided_.has_value());
}

TEST_F(ReplicaTest, DecidesOnlyOnce) {
  auto r = make_replica(1, y_);
  for (ProcessId p : {0u, 2u, 3u}) r->on_message(p, ack_wire(x_, 1));
  ASSERT_TRUE(decided_.has_value());
  decided_.reset();
  for (ProcessId p : {0u, 1u, 2u, 3u}) r->on_message(p, ack_wire(y_, 2));
  EXPECT_FALSE(decided_.has_value()) << "second decision must not fire";
}

TEST_F(ReplicaTest, LeaderOfViewOneProposesOnStart) {
  RecordingTransport t0(0, kN);
  Replica leader(cfg_, 0, x_, t0, crypto::Signer(keys_, 0), verifier_, leader_,
                 nullptr, ReplicaOptions{});
  leader.start();
  std::vector<net::Envelope> proposals;
  for (const auto& env : t0.peek_outbox()) {
    if (env.payload[0] == net::tags::kPropose) proposals.push_back(env);
  }
  ASSERT_EQ(proposals.size(), kN);
  auto parsed = parse_message(proposals[0].payload);
  EXPECT_EQ(std::get<ProposeMsg>(*parsed).x, x_);
}

TEST_F(ReplicaTest, NonLeaderStaysQuietOnStart) {
  auto r = make_replica(1, y_);
  r->start();
  EXPECT_TRUE(transport_.peek_outbox().empty());
}

// --- Slow path -------------------------------------------------------------------

TEST_F(ReplicaTest, SendsSignedAckAlongsideFastAck) {
  auto r = make_replica(1, y_);
  r->on_message(0, propose_wire(0, x_, 1));
  EXPECT_EQ(sent_of(net::tags::kAckSig).size(), kN);
}

TEST_F(ReplicaTest, VanillaModeSendsNoSignedAcks) {
  auto r = make_replica(1, y_, /*slow_path=*/false);
  r->on_message(0, propose_wire(0, x_, 1));
  EXPECT_EQ(sent_of(net::tags::kAck).size(), kN);
  EXPECT_TRUE(sent_of(net::tags::kAckSig).empty());
}

TEST_F(ReplicaTest, AssemblesCommitCertFromSignedAcks) {
  auto r = make_replica(1, y_);
  for (ProcessId p : {0u, 2u, 3u}) {  // commit_quorum = 3
    AckSigMsg m{1, x_, sign(p, kDomAck, ack_preimage(x_, 1))};
    r->on_message(p, m.serialize());
  }
  auto commits = sent_of(net::tags::kCommit);
  ASSERT_EQ(commits.size(), kN);
  ASSERT_TRUE(r->latest_cc().has_value());
  EXPECT_EQ(r->latest_cc()->x, x_);
  EXPECT_TRUE(verify_commit_cert(verifier_, cfg_, *r->latest_cc()));
}

TEST_F(ReplicaTest, InvalidAckSigIgnored) {
  auto r = make_replica(1, y_);
  for (ProcessId p : {0u, 2u, 3u}) {
    AckSigMsg m{1, x_, sign(p, kDomAck, ack_preimage(y_, 1))};  // wrong value
    r->on_message(p, m.serialize());
  }
  EXPECT_TRUE(sent_of(net::tags::kCommit).empty());
}

TEST_F(ReplicaTest, DecidesOnCommitQuorum) {
  auto r = make_replica(1, y_);
  CommitCert cc;
  cc.x = x_;
  cc.v = 1;
  for (ProcessId p : {0u, 2u, 3u}) {
    cc.sigs.push_back(SignatureEntry{p, sign(p, kDomAck, ack_preimage(x_, 1))});
  }
  CommitMsg m{1, x_, cc};
  for (ProcessId p : {0u, 2u, 3u}) r->on_message(p, m.serialize());
  ASSERT_TRUE(decided_.has_value());
  EXPECT_TRUE(decided_->via_slow_path);
  EXPECT_EQ(decided_->value, x_);
}

TEST_F(ReplicaTest, ForgedCommitCertIgnored) {
  auto r = make_replica(1, y_);
  CommitCert cc;
  cc.x = x_;
  cc.v = 1;
  for (ProcessId p : {0u, 2u, 3u}) {
    cc.sigs.push_back(SignatureEntry{p, crypto::Signature{Bytes(32, 0x11)}});
  }
  CommitMsg m{1, x_, cc};
  for (ProcessId p : {0u, 2u, 3u}) r->on_message(p, m.serialize());
  EXPECT_FALSE(decided_.has_value());
}

TEST_F(ReplicaTest, QuorumsMatchValuesByContentNotBuffer) {
  // Every wire message decodes into a buffer of its own, and the proposal's
  // value seeds our own entries (loopback ack aside, our signed ack is
  // recorded at signing time). Equal values in distinct buffers must land
  // on one (view, value) quorum; a different value in the same view must
  // stay apart.
  const Value x_copy = Value::of_string("X");
  ASSERT_EQ(x_copy, x_);
  ASSERT_NE(&x_copy.bytes(), &x_.bytes());
  auto acksig_wire = [&](ProcessId p, const Value& x) {
    return AckSigMsg{1, x, sign(p, kDomAck, ack_preimage(x, 1))}.serialize();
  };

  {  // Fast path: n - t = 3 acks.
    auto r = make_replica(1, y_);
    r->on_message(0, propose_wire(0, x_, 1));
    r->on_message(2, ack_wire(y_, 1));
    r->on_message(1, ack_wire(x_copy, 1));
    r->on_message(0, ack_wire(x_copy, 1));
    EXPECT_FALSE(decided_.has_value());
    r->on_message(3, ack_wire(x_copy, 1));
    ASSERT_TRUE(decided_.has_value());
    EXPECT_EQ(decided_->value, x_);
    EXPECT_FALSE(decided_->via_slow_path);
  }
  decided_.reset();
  transport_.take_outbox();

  {  // Signed acks: ours from the proposal plus two peers' make 3.
    auto r = make_replica(1, y_);
    r->on_message(0, propose_wire(0, x_, 1));
    r->on_message(2, acksig_wire(2, y_));
    r->on_message(3, acksig_wire(3, x_copy));
    EXPECT_TRUE(sent_of(net::tags::kCommit).empty());
    r->on_message(0, acksig_wire(0, x_copy));
    EXPECT_EQ(sent_of(net::tags::kCommit).size(), kN);
    ASSERT_TRUE(r->latest_cc().has_value());
    EXPECT_EQ(r->latest_cc()->x, x_);
    EXPECT_TRUE(verify_commit_cert(verifier_, cfg_, *r->latest_cc()));
  }
  decided_.reset();
  transport_.take_outbox();

  {  // Commits: 3 senders with a valid certificate each.
    auto commit_wire = [&](const Value& x) {
      CommitCert cc;
      cc.x = x;
      cc.v = 1;
      for (ProcessId p : {0u, 2u, 3u}) {
        cc.sigs.push_back(SignatureEntry{p, sign(p, kDomAck, ack_preimage(x, 1))});
      }
      return CommitMsg{1, x, cc}.serialize();
    };
    auto r = make_replica(1, y_);
    r->on_message(0, commit_wire(x_));
    r->on_message(2, commit_wire(x_copy));
    r->on_message(3, commit_wire(y_));
    EXPECT_FALSE(decided_.has_value());
    r->on_message(3, commit_wire(x_copy));
    ASSERT_TRUE(decided_.has_value());
    EXPECT_EQ(decided_->value, x_);
    EXPECT_TRUE(decided_->via_slow_path);
  }
}

// --- View change -----------------------------------------------------------------

TEST_F(ReplicaTest, EnteringViewSendsVoteToNewLeader) {
  auto r = make_replica(1, y_);
  r->on_message(0, propose_wire(0, x_, 1));
  transport_.take_outbox();
  r->enter_view(3);  // leader(3) = p2
  auto votes = sent_of(net::tags::kVote);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].to, 2u);
  auto parsed = parse_message(votes[0].payload);
  const auto& vm = std::get<VoteMsg>(*parsed);
  EXPECT_EQ(vm.record.voter, 1u);
  EXPECT_FALSE(vm.record.vote.is_nil);
  EXPECT_EQ(vm.record.vote.x, x_);
  EXPECT_TRUE(validate_vote_record(verifier_, cfg_, leader_, vm.record, 3));
}

TEST_F(ReplicaTest, ViewsAreMonotone) {
  auto r = make_replica(1, y_);
  r->enter_view(5);
  EXPECT_EQ(r->view(), 5u);
  r->enter_view(3);
  EXPECT_EQ(r->view(), 5u);
  r->enter_view(5);
  EXPECT_EQ(r->view(), 5u);
}

TEST_F(ReplicaTest, LeaderRunsViewChangeToProposal) {
  // p1 is leader of view 2. Feed it n - f = 3 nil votes; it must CertReq,
  // and after f + 1 = 2 CertAcks propose its own input.
  auto r = make_replica(1, y_);
  r->enter_view(2);
  // Own vote was sent to self through the transport; deliver it back.
  auto own_votes = sent_of(net::tags::kVote);
  ASSERT_EQ(own_votes.size(), 1u);
  EXPECT_EQ(own_votes[0].to, 1u);
  r->on_message(1, own_votes[0].payload);
  r->on_message(2, vote_wire(2, 2));
  EXPECT_TRUE(sent_of(net::tags::kCertReq).empty()) << "needs n-f votes";
  r->on_message(3, vote_wire(3, 2));
  auto reqs = sent_of(net::tags::kCertReq);
  ASSERT_EQ(reqs.size(), cfg_.cert_req_targets());

  // CertAcks from two processes.
  for (ProcessId p : {2u, 3u}) {
    CertAckMsg ca{2, y_, sign(p, kDomCertAck, certack_preimage(y_, 2))};
    r->on_message(p, ca.serialize());
  }
  auto proposals = sent_of(net::tags::kPropose);
  ASSERT_EQ(proposals.size(), kN);
  auto parsed = parse_message(proposals[0].payload);
  const auto& pm = std::get<ProposeMsg>(*parsed);
  EXPECT_EQ(pm.x, y_);  // all-nil: leader's own input
  EXPECT_EQ(pm.v, 2u);
  EXPECT_TRUE(verify_progress_cert(verifier_, cfg_, pm.x, 2, pm.sigma));
}

TEST_F(ReplicaTest, LeaderForcedToReproposeAdoptedValue) {
  // One voter acked x in view 1; selection must force x, not the leader's
  // own input.
  auto r = make_replica(1, y_);
  r->enter_view(2);
  auto own_votes = sent_of(net::tags::kVote);
  r->on_message(1, own_votes[0].payload);
  Vote v2 = Vote::of(x_, 1, ProgressCert{},
                     sign(0, kDomPropose, propose_preimage(x_, 1)));
  r->on_message(2, vote_wire(2, 2, v2));
  r->on_message(3, vote_wire(3, 2));
  for (ProcessId p : {2u, 3u}) {
    CertAckMsg ca{2, x_, sign(p, kDomCertAck, certack_preimage(x_, 2))};
    r->on_message(p, ca.serialize());
  }
  auto proposals = sent_of(net::tags::kPropose);
  ASSERT_FALSE(proposals.empty());
  auto parsed = parse_message(proposals[0].payload);
  EXPECT_EQ(std::get<ProposeMsg>(*parsed).x, x_);
}

TEST_F(ReplicaTest, RejectsVoteWithWrongSenderIdentity) {
  auto r = make_replica(1, y_);
  r->enter_view(2);
  auto own_votes = sent_of(net::tags::kVote);
  r->on_message(1, own_votes[0].payload);
  // p3's correctly signed vote delivered with channel identity p2.
  r->on_message(2, vote_wire(3, 2));
  r->on_message(3, vote_wire(3, 2));
  EXPECT_TRUE(sent_of(net::tags::kCertReq).empty());
}

TEST_F(ReplicaTest, CertReqVerifierRejectsUnjustifiedValue) {
  // Leader p1 claims y although a vote for x at the highest view forces x.
  auto r = make_replica(2, y_);  // p2 is a verifier
  r->enter_view(2);
  transport_.take_outbox();

  CertReqMsg req;
  req.v = 2;
  req.x = y_;
  {
    VoteRecord rec;
    rec.voter = 0;
    rec.vote = Vote::of(x_, 1, ProgressCert{},
                        sign(0, kDomPropose, propose_preimage(x_, 1)));
    rec.phi = sign(0, kDomVote, vote_preimage(rec.vote, rec.cc, 2));
    req.votes.push_back(rec);
  }
  for (ProcessId p : {2u, 3u}) {
    VoteRecord rec;
    rec.voter = p;
    rec.vote = Vote::nil();
    rec.phi = sign(p, kDomVote, vote_preimage(rec.vote, rec.cc, 2));
    req.votes.push_back(rec);
  }
  r->on_message(1, req.serialize());
  EXPECT_TRUE(sent_of(net::tags::kCertAck).empty());

  // The same request with the justified value is certified.
  req.x = x_;
  r->on_message(1, req.serialize());
  EXPECT_EQ(sent_of(net::tags::kCertAck).size(), 1u);
}

// --- Application value check (ReplicaOptions::valid_value) -----------------

/// Values whose first byte is the digit of the process that may propose
/// them on its own: "0a" is p0's, "1a" is p1's.
bool names_proposer(const Value& x, ProcessId proposer) {
  return !x.empty() && x.bytes()[0] == '0' + proposer;
}

class CheckedReplicaTest : public ReplicaTest {
 protected:
  Value p0_value_ = Value::of_string("0a");
  Value p1_value_ = Value::of_string("1a");
  Value p3_value_ = Value::of_string("3a");

  std::unique_ptr<Replica> make_checked(ProcessId id, Value input) {
    return std::make_unique<Replica>(
        cfg_, id, std::move(input), transport_, crypto::Signer(keys_, id),
        verifier_, leader_, [this](const DecisionRecord& r) { decided_ = r; },
        ReplicaOptions{.slow_path = false, .valid_value = names_proposer});
  }

  VoteRecord record(ProcessId voter, Vote vote, View v) {
    VoteRecord rec;
    rec.voter = voter;
    rec.vote = std::move(vote);
    rec.phi = sign(voter, kDomVote, vote_preimage(rec.vote, rec.cc, v));
    return rec;
  }

  /// p0's signed view-1 proposal of `x`, as a vote.
  Vote view1_vote(const Value& x) {
    return Vote::of(x, 1, ProgressCert{},
                    sign(0, kDomPropose, propose_preimage(x, 1)));
  }

  /// A view-2 CertReq from its leader p1 to the verifier `r`.
  void cert_req(Replica& r, const Value& x, std::vector<VoteRecord> votes) {
    CertReqMsg req;
    req.v = 2;
    req.x = x;
    req.votes = std::move(votes);
    r.on_message(1, req.serialize());
  }
};

TEST_F(CheckedReplicaTest, ViewOneProposalMustPassTheCheck) {
  auto r = make_checked(1, p1_value_);
  r->on_message(0, propose_wire(0, p1_value_, 1));
  EXPECT_TRUE(sent_of(net::tags::kAck).empty())
      << "p0 proposed a value only p1 may propose";
  r->on_message(0, propose_wire(0, p0_value_, 1));
  EXPECT_EQ(sent_of(net::tags::kAck).size(), kN);
}

TEST_F(CheckedReplicaTest, FreeCertReqMustPassTheCheck) {
  // All-nil votes leave view 2's leader p1 free to propose its own value.
  auto r = make_checked(2, p1_value_);
  r->enter_view(2);
  transport_.take_outbox();
  std::vector<VoteRecord> nil;
  for (ProcessId p : {0u, 2u, 3u}) nil.push_back(record(p, Vote::nil(), 2));
  cert_req(*r, p0_value_, nil);
  EXPECT_TRUE(sent_of(net::tags::kCertAck).empty());
  cert_req(*r, p1_value_, nil);
  EXPECT_EQ(sent_of(net::tags::kCertAck).size(), 1u);
}

TEST_F(CheckedReplicaTest, ForcedValueKeepsItsFirstProposer) {
  // p0's value, possibly decided in view 1, is forced on view 2's p1.
  auto r = make_checked(2, p1_value_);
  r->enter_view(2);
  transport_.take_outbox();
  cert_req(*r, p0_value_,
           {record(0, view1_vote(p0_value_), 2), record(2, Vote::nil(), 2),
            record(3, Vote::nil(), 2)});
  EXPECT_EQ(sent_of(net::tags::kCertAck).size(), 1u);
}

TEST_F(CheckedReplicaTest, VoteForAnUncheckedViewOneValueIsInvalid) {
  // No correct replica acks p0's proposal of p3's value, so a vote for it
  // can only come from a faulty one; counted, it would force that value.
  auto r = make_checked(2, p1_value_);
  r->enter_view(2);
  transport_.take_outbox();
  std::vector<VoteRecord> votes{record(0, view1_vote(p3_value_), 2),
                                record(2, Vote::nil(), 2),
                                record(3, Vote::nil(), 2)};
  cert_req(*r, p3_value_, votes);
  cert_req(*r, p1_value_, votes);
  EXPECT_TRUE(sent_of(net::tags::kCertAck).empty());

  // The view-2 leader does not count it either.
  auto leader = make_checked(1, p1_value_);
  leader->enter_view(2);
  leader->on_message(1, sent_of(net::tags::kVote).back().payload);
  leader->on_message(0, vote_wire(0, 2, view1_vote(p3_value_)));
  leader->on_message(2, vote_wire(2, 2));
  EXPECT_TRUE(sent_of(net::tags::kCertReq).empty()) << "two valid votes";
  leader->on_message(3, vote_wire(3, 2));
  auto reqs = sent_of(net::tags::kCertReq);
  ASSERT_FALSE(reqs.empty());
  auto parsed = parse_message(reqs[0].payload);
  EXPECT_EQ(std::get<CertReqMsg>(*parsed).x, p1_value_);
}

TEST_F(ReplicaTest, CertReqWithDuplicateVotersRejected) {
  auto r = make_replica(2, y_);
  r->enter_view(2);
  transport_.take_outbox();
  CertReqMsg req;
  req.v = 2;
  req.x = y_;
  for (int i = 0; i < 3; ++i) {
    VoteRecord rec;
    rec.voter = 3;
    rec.vote = Vote::nil();
    rec.phi = sign(3, kDomVote, vote_preimage(rec.vote, rec.cc, 2));
    req.votes.push_back(rec);
  }
  r->on_message(1, req.serialize());
  EXPECT_TRUE(sent_of(net::tags::kCertAck).empty());
}

TEST_F(ReplicaTest, FutureViewMessagesBufferedAndReplayed) {
  auto r = make_replica(1, y_);
  // Proposal for view 2 arrives while still in view 1.
  ProgressCert sigma;
  for (ProcessId p : {2u, 3u}) {
    sigma.acks.push_back(
        SignatureEntry{p, sign(p, kDomCertAck, certack_preimage(x_, 2))});
  }
  r->on_message(1, propose_wire(1, x_, 2, sigma));
  EXPECT_TRUE(sent_of(net::tags::kAck).empty());
  r->enter_view(2);
  EXPECT_FALSE(sent_of(net::tags::kAck).empty());
  EXPECT_EQ(r->current_vote()->u, 2u);
}

TEST_F(ReplicaTest, StaleViewProposalIgnored) {
  auto r = make_replica(1, y_);
  r->enter_view(4);
  transport_.take_outbox();
  r->on_message(0, propose_wire(0, x_, 1));
  EXPECT_TRUE(sent_of(net::tags::kAck).empty());
}

TEST_F(ReplicaTest, ProposalWithoutCertRejectedAfterViewOne) {
  auto r = make_replica(1, y_);
  r->enter_view(2);
  transport_.take_outbox();
  r->on_message(1, propose_wire(1, x_, 2));  // empty sigma, v > 1
  EXPECT_TRUE(sent_of(net::tags::kAck).empty());
}

// --- Future-view buffer cap ------------------------------------------------------

TEST_F(ReplicaTest, FutureBufferBoundedUnderByzantineFlood) {
  auto r = std::make_unique<Replica>(
      cfg_, 1, y_, transport_, crypto::Signer(keys_, 1), verifier_, leader_,
      nullptr, ReplicaOptions{.max_future_buffered = 8});
  // A Byzantine process sprays votes for ever-farther future views; the
  // buffer must stay at the cap instead of growing without bound.
  for (View v = 100; v < 400; ++v) {
    r->on_message(3, vote_wire(3, v));
  }
  EXPECT_LE(r->future_buffered_total(), 8u);
}

TEST_F(ReplicaTest, FloodedBufferStillAdmitsNearFutureMessages) {
  auto r = std::make_unique<Replica>(
      cfg_, 1, y_, transport_, crypto::Signer(keys_, 1), verifier_, leader_,
      nullptr, ReplicaOptions{.max_future_buffered = 4});
  // Fill the buffer with far-future junk.
  for (View v = 1000; v < 1004; ++v) {
    r->on_message(3, vote_wire(3, v));
  }
  EXPECT_EQ(r->future_buffered_total(), 4u);

  // A valid view-2 proposal arrives while flooded: it must evict junk
  // rather than be dropped, and must replay once view 2 is entered.
  ProgressCert sigma;
  for (ProcessId p : {2u, 3u}) {
    sigma.acks.push_back(
        SignatureEntry{p, sign(p, kDomCertAck, certack_preimage(x_, 2))});
  }
  r->on_message(1, propose_wire(1, x_, 2, sigma));
  EXPECT_LE(r->future_buffered_total(), 4u);

  r->enter_view(2);
  EXPECT_FALSE(sent_of(net::tags::kAck).empty())
      << "the buffered view-2 proposal must survive the flood and replay";
  EXPECT_EQ(r->current_vote()->u, 2u);
}

TEST_F(ReplicaTest, MessagesBeyondFullBufferAreDropped) {
  auto r = std::make_unique<Replica>(
      cfg_, 1, y_, transport_, crypto::Signer(keys_, 1), verifier_, leader_,
      nullptr, ReplicaOptions{.max_future_buffered = 2});
  r->on_message(2, vote_wire(2, 5));
  r->on_message(3, vote_wire(3, 6));
  EXPECT_EQ(r->future_buffered_total(), 2u);
  // Farther than everything buffered and the buffer is full: dropped.
  r->on_message(3, vote_wire(3, 7));
  EXPECT_EQ(r->future_buffered_total(), 2u);
}

}  // namespace
}  // namespace fastbft::consensus
