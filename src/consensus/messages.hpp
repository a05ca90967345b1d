#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "consensus/types.hpp"
#include "net/tags.hpp"

/// \file messages.hpp
/// Wire messages of the protocol (Figures 1a, 1b and 5 of the paper), each
/// encoded as tag byte + body. Parsing is total: malformed payloads
/// decode to nullopt and are dropped by the replica, never trusted.
///
/// `encode` appends a message to any Encoder, so a framing transport can
/// put its header and the message in one buffer (net::MessageRef);
/// `serialize` is the standalone encoding. Decoders take an optional
/// `known` value: a top-level value byte-equal to it shares its buffer
/// (Value::decode).

namespace fastbft::consensus {

/// propose(x, v, sigma, tau) — leader's proposal (Section 3.1).
struct ProposeMsg {
  View v = kNoView;
  Value x;
  ProgressCert sigma;
  crypto::Signature tau;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<ProposeMsg> decode(Decoder& dec,
                                          const Value* known = nullptr);
  friend bool operator==(const ProposeMsg&, const ProposeMsg&) = default;
};

/// ack(x, v) — unsigned acknowledgment broadcast on accepting a proposal.
struct AckMsg {
  View v = kNoView;
  Value x;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<AckMsg> decode(Decoder& dec,
                                      const Value* known = nullptr);
  friend bool operator==(const AckMsg&, const AckMsg&) = default;
};

/// sig(phi_ack) — slow path (Appendix A.1): the signed counterpart of an
/// ack, sent separately so signing latency never delays the fast path.
struct AckSigMsg {
  View v = kNoView;
  Value x;
  crypto::Signature phi_ack;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<AckSigMsg> decode(Decoder& dec,
                                         const Value* known = nullptr);
  friend bool operator==(const AckSigMsg&, const AckSigMsg&) = default;
};

/// Commit(x, v, cc) — slow path: broadcast once a commit certificate is
/// assembled.
struct CommitMsg {
  View v = kNoView;
  Value x;
  CommitCert cc;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<CommitMsg> decode(Decoder& dec,
                                         const Value* known = nullptr);
  friend bool operator==(const CommitMsg&, const CommitMsg&) = default;
};

/// vote(vote_q, phi_vote) — sent to the leader of a newly entered view.
struct VoteMsg {
  View v = kNoView;  // destination view
  VoteRecord record;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<VoteMsg> decode(Decoder& dec,
                                       const Value* known = nullptr);
  friend bool operator==(const VoteMsg&, const VoteMsg&) = default;
};

/// CertReq(x, votes) — leader asks for confirmation that x was selected
/// correctly from `votes` (Section 3.2, "creating the progress
/// certificate").
struct CertReqMsg {
  View v = kNoView;
  Value x;
  std::vector<VoteRecord> votes;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<CertReqMsg> decode(Decoder& dec,
                                          const Value* known = nullptr);
  friend bool operator==(const CertReqMsg&, const CertReqMsg&) = default;
};

/// CertAck(phi_ca) — signed confirmation returned to the leader.
struct CertAckMsg {
  View v = kNoView;
  Value x;
  crypto::Signature phi_ca;

  void encode(Encoder& enc) const;
  Bytes serialize() const { return encode_to_bytes(*this); }
  static std::optional<CertAckMsg> decode(Decoder& dec,
                                          const Value* known = nullptr);
  friend bool operator==(const CertAckMsg&, const CertAckMsg&) = default;
};

using Message = std::variant<ProposeMsg, AckMsg, AckSigMsg, CommitMsg, VoteMsg,
                             CertReqMsg, CertAckMsg>;

/// Parses a full payload (tag + body). Returns nullopt for unknown tags,
/// truncated or trailing bytes. Takes a view so wrapped/nested payloads
/// parse without being copied out first; the result owns its fields (its
/// top-level value may share `known`'s buffer, never the payload's).
std::optional<Message> parse_message(ByteView payload,
                                     const Value* known = nullptr);

/// View number of any protocol message (used for buffering).
View message_view(const Message& msg);

}  // namespace fastbft::consensus
