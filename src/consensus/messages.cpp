#include "consensus/messages.hpp"

namespace fastbft::consensus {

// --- ProposeMsg -------------------------------------------------------------

void ProposeMsg::encode(Encoder& enc) const {
  enc.u8(net::tags::kPropose);
  enc.u64(v);
  x.encode(enc);
  sigma.encode(enc);
  tau.encode(enc);
}

std::optional<ProposeMsg> ProposeMsg::decode(Decoder& dec, const Value* known) {
  ProposeMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec, known);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  auto sigma = ProgressCert::decode(dec);
  if (!sigma) return std::nullopt;
  m.sigma = std::move(*sigma);
  auto tau = crypto::Signature::decode(dec);
  if (!tau) return std::nullopt;
  m.tau = std::move(*tau);
  return m;
}

// --- AckMsg -----------------------------------------------------------------

void AckMsg::encode(Encoder& enc) const {
  enc.u8(net::tags::kAck);
  enc.u64(v);
  x.encode(enc);
}

std::optional<AckMsg> AckMsg::decode(Decoder& dec, const Value* known) {
  AckMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec, known);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  return m;
}

// --- AckSigMsg --------------------------------------------------------------

void AckSigMsg::encode(Encoder& enc) const {
  enc.u8(net::tags::kAckSig);
  enc.u64(v);
  x.encode(enc);
  phi_ack.encode(enc);
}

std::optional<AckSigMsg> AckSigMsg::decode(Decoder& dec, const Value* known) {
  AckSigMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec, known);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  auto sig = crypto::Signature::decode(dec);
  if (!sig) return std::nullopt;
  m.phi_ack = std::move(*sig);
  return m;
}

// --- CommitMsg --------------------------------------------------------------

void CommitMsg::encode(Encoder& enc) const {
  // Wire compaction: a Commit is only meaningful when cc certifies exactly
  // (x, v) — the receiver rejects mismatches — so the certificate's own
  // (x, v) copy is elided on the wire and reconstructed on decode. This
  // halves the largest steady-state message (the value dominates).
  enc.u8(net::tags::kCommit);
  enc.u64(v);
  x.encode(enc);
  cc.encode_sigs_only(enc);
}

std::optional<CommitMsg> CommitMsg::decode(Decoder& dec, const Value* known) {
  CommitMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec, known);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  auto cc = CommitCert::decode_sigs_only(dec, m.x, m.v);
  if (!cc) return std::nullopt;
  m.cc = std::move(*cc);
  return m;
}

// --- VoteMsg ----------------------------------------------------------------

void VoteMsg::encode(Encoder& enc) const {
  enc.u8(net::tags::kVote);
  enc.u64(v);
  record.encode(enc);
}

// A vote carries no top-level value; `known` is unused.
std::optional<VoteMsg> VoteMsg::decode(Decoder& dec, const Value* /*known*/) {
  VoteMsg m;
  m.v = dec.u64();
  auto record = VoteRecord::decode(dec);
  if (!record) return std::nullopt;
  m.record = std::move(*record);
  return m;
}

// --- CertReqMsg -------------------------------------------------------------

void CertReqMsg::encode(Encoder& enc) const {
  enc.u8(net::tags::kCertReq);
  enc.u64(v);
  x.encode(enc);
  enc.u32(static_cast<std::uint32_t>(votes.size()));
  for (const auto& r : votes) r.encode(enc);
}

std::optional<CertReqMsg> CertReqMsg::decode(Decoder& dec, const Value* known) {
  CertReqMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec, known);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  std::uint32_t count = dec.u32();
  if (!dec.ok() || count > 4096) return std::nullopt;
  m.votes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto r = VoteRecord::decode(dec);
    if (!r) return std::nullopt;
    m.votes.push_back(std::move(*r));
  }
  return m;
}

// --- CertAckMsg -------------------------------------------------------------

void CertAckMsg::encode(Encoder& enc) const {
  enc.u8(net::tags::kCertAck);
  enc.u64(v);
  x.encode(enc);
  phi_ca.encode(enc);
}

std::optional<CertAckMsg> CertAckMsg::decode(Decoder& dec, const Value* known) {
  CertAckMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec, known);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  auto sig = crypto::Signature::decode(dec);
  if (!sig) return std::nullopt;
  m.phi_ca = std::move(*sig);
  return m;
}

// --- parse ------------------------------------------------------------------

namespace {
template <typename T>
std::optional<Message> finish(Decoder& dec, const Value* known) {
  auto m = T::decode(dec, known);
  if (!m || !dec.ok() || !dec.at_end()) return std::nullopt;
  return Message(std::move(*m));
}
}  // namespace

std::optional<Message> parse_message(ByteView payload, const Value* known) {
  if (payload.empty()) return std::nullopt;
  Decoder dec(payload);
  std::uint8_t tag = dec.u8();
  switch (tag) {
    case net::tags::kPropose: return finish<ProposeMsg>(dec, known);
    case net::tags::kAck: return finish<AckMsg>(dec, known);
    case net::tags::kAckSig: return finish<AckSigMsg>(dec, known);
    case net::tags::kCommit: return finish<CommitMsg>(dec, known);
    case net::tags::kVote: return finish<VoteMsg>(dec, known);
    case net::tags::kCertReq: return finish<CertReqMsg>(dec, known);
    case net::tags::kCertAck: return finish<CertAckMsg>(dec, known);
    default: return std::nullopt;
  }
}

View message_view(const Message& msg) {
  return std::visit([](const auto& m) { return m.v; }, msg);
}

}  // namespace fastbft::consensus
