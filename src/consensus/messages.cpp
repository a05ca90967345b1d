#include "consensus/messages.hpp"

namespace fastbft::consensus {

namespace {

/// Encodes into a pooled scratch buffer and copies out once: one
/// exact-size allocation per message instead of a growth chain.
template <typename Body>
Bytes with_tag(std::uint8_t tag, const Body& body) {
  Encoder enc = Encoder::scratch();
  enc.u8(tag);
  body(enc);
  return enc.view().to_bytes();
}

}  // namespace

// --- ProposeMsg -------------------------------------------------------------

Bytes ProposeMsg::serialize() const {
  return with_tag(net::tags::kPropose, [&](Encoder& enc) {
    enc.u64(v);
    x.encode(enc);
    sigma.encode(enc);
    tau.encode(enc);
  });
}

std::optional<ProposeMsg> ProposeMsg::decode(Decoder& dec) {
  ProposeMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec);
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

Bytes AckMsg::serialize() const {
  return with_tag(net::tags::kAck, [&](Encoder& enc) {
    enc.u64(v);
    x.encode(enc);
  });
}

std::optional<AckMsg> AckMsg::decode(Decoder& dec) {
  AckMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  return m;
}

// --- AckSigMsg --------------------------------------------------------------

Bytes AckSigMsg::serialize() const {
  return with_tag(net::tags::kAckSig, [&](Encoder& enc) {
    enc.u64(v);
    x.encode(enc);
    phi_ack.encode(enc);
  });
}

std::optional<AckSigMsg> AckSigMsg::decode(Decoder& dec) {
  AckSigMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  auto sig = crypto::Signature::decode(dec);
  if (!sig) return std::nullopt;
  m.phi_ack = std::move(*sig);
  return m;
}

// --- CommitMsg --------------------------------------------------------------

Bytes CommitMsg::serialize() const {
  // Wire compaction: a Commit is only meaningful when cc certifies exactly
  // (x, v) — the receiver rejects mismatches — so the certificate's own
  // (x, v) copy is elided on the wire and reconstructed on decode. This
  // halves the largest steady-state message (the value dominates).
  return with_tag(net::tags::kCommit, [&](Encoder& enc) {
    enc.u64(v);
    x.encode(enc);
    cc.encode_sigs_only(enc);
  });
}

std::optional<CommitMsg> CommitMsg::decode(Decoder& dec) {
  CommitMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec);
  if (!x) return std::nullopt;
  m.x = std::move(*x);
  auto cc = CommitCert::decode_sigs_only(dec, m.x, m.v);
  if (!cc) return std::nullopt;
  m.cc = std::move(*cc);
  return m;
}

// --- VoteMsg ----------------------------------------------------------------

Bytes VoteMsg::serialize() const {
  return with_tag(net::tags::kVote, [&](Encoder& enc) {
    enc.u64(v);
    record.encode(enc);
  });
}

std::optional<VoteMsg> VoteMsg::decode(Decoder& dec) {
  VoteMsg m;
  m.v = dec.u64();
  auto record = VoteRecord::decode(dec);
  if (!record) return std::nullopt;
  m.record = std::move(*record);
  return m;
}

// --- CertReqMsg -------------------------------------------------------------

Bytes CertReqMsg::serialize() const {
  return with_tag(net::tags::kCertReq, [&](Encoder& enc) {
    enc.u64(v);
    x.encode(enc);
    enc.u32(static_cast<std::uint32_t>(votes.size()));
    for (const auto& r : votes) r.encode(enc);
  });
}

std::optional<CertReqMsg> CertReqMsg::decode(Decoder& dec) {
  CertReqMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec);
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

Bytes CertAckMsg::serialize() const {
  return with_tag(net::tags::kCertAck, [&](Encoder& enc) {
    enc.u64(v);
    x.encode(enc);
    phi_ca.encode(enc);
  });
}

std::optional<CertAckMsg> CertAckMsg::decode(Decoder& dec) {
  CertAckMsg m;
  m.v = dec.u64();
  auto x = Value::decode(dec);
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
std::optional<Message> finish(Decoder& dec) {
  auto m = T::decode(dec);
  if (!m || !dec.ok() || !dec.at_end()) return std::nullopt;
  return Message(std::move(*m));
}
}  // namespace

std::optional<Message> parse_message(ByteView payload) {
  if (payload.empty()) return std::nullopt;
  Decoder dec(payload);
  std::uint8_t tag = dec.u8();
  switch (tag) {
    case net::tags::kPropose: return finish<ProposeMsg>(dec);
    case net::tags::kAck: return finish<AckMsg>(dec);
    case net::tags::kAckSig: return finish<AckSigMsg>(dec);
    case net::tags::kCommit: return finish<CommitMsg>(dec);
    case net::tags::kVote: return finish<VoteMsg>(dec);
    case net::tags::kCertReq: return finish<CertReqMsg>(dec);
    case net::tags::kCertAck: return finish<CertAckMsg>(dec);
    default: return std::nullopt;
  }
}

View message_view(const Message& msg) {
  return std::visit([](const auto& m) { return m.v; }, msg);
}

}  // namespace fastbft::consensus
