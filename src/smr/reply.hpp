#pragma once

#include <optional>
#include <string>

#include "common/codec.hpp"
#include "crypto/signer.hpp"
#include "smr/command.hpp"
#include "smr/kvstore.hpp"

/// \file reply.hpp
/// SMR_REPLY: after executing a command at its log position, a replica
/// sends the issuing client a signed reply carrying the execution result.
/// A Byzantine replica may lie about the result (or about having executed
/// at all), so a client session treats a request as complete only once
/// f + 1 distinct replicas sent replies agreeing on the same
/// (slot, result) — at least one of them is correct, and correct replicas
/// only execute decided commands, in log order. That rule is what makes
/// results (including reads, which travel through the log) Byzantine-
/// verified end to end. See smr/session.hpp and docs/CLIENT_API.md.

namespace fastbft::smr {

struct Reply {
  /// How the request concluded at the SESSION. Local-only — never on the
  /// wire: replicas always report executions (Ok); Timeout is synthesized
  /// by the session itself when a request's deadline budget expires before
  /// an f + 1 reply quorum arrives (SessionConfig::request_deadline). A
  /// Timeout reply carries slot 0 and a default result; the command may
  /// still execute later (at-most-once, not exactly-never).
  enum class Status : std::uint8_t { Ok = 0, Timeout = 1 };

  /// Echo of the request identity (the client's at-most-once id).
  std::uint64_t client_id = 0;
  std::uint64_t sequence = 0;

  /// The log position that executed the command.
  Slot slot = 0;

  /// Echo of the operation, plus its execution result.
  OpKind op = OpKind::Noop;
  ExecResult result;

  /// See Status above. Last field so replica-side aggregate inits (which
  /// never set it) keep their positional form; defaults to Ok.
  Status status = Status::Ok;

  bool ok() const { return status == Status::Ok && result.ok; }
  bool timed_out() const { return status == Status::Timeout; }

  /// Identity of the matching rule: replies agreeing on this digest agree
  /// on the execution — the slot and the full result.
  crypto::Digest match_digest() const;

  /// Also the signing preimage (domain-separated by kReplyDomain at the
  /// signature layer): a reply signature covers exactly this encoding.
  void encode(Encoder& enc) const;
  static std::optional<Reply> decode(Decoder& dec);

  friend bool operator==(const Reply&, const Reply&) = default;
};

/// Domain-separation string for reply signatures.
inline const std::string kReplyDomain = "smr-reply";

/// Full SMR_REPLY wire payload: tag, reply fields, signature.
Bytes encode_reply_payload(const Reply& reply, const crypto::Signer& signer);

/// Parses and signature-checks an SMR_REPLY payload from replica `from`.
/// nullopt on malformed payloads or bad signatures.
std::optional<Reply> decode_reply_payload(ByteView payload, ProcessId from,
                                          const crypto::Verifier& verifier);

}  // namespace fastbft::smr
