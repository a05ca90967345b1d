#include "smr/reply.hpp"

#include "net/tags.hpp"

namespace fastbft::smr {

void Reply::encode(Encoder& enc) const {
  enc.u64(client_id);
  enc.u64(sequence);
  enc.u64(slot);
  enc.u8(static_cast<std::uint8_t>(op));
  enc.boolean(result.ok);
  enc.boolean(result.found);
  enc.str(result.value);
}

std::optional<Reply> Reply::decode(Decoder& dec) {
  Reply reply;
  reply.client_id = dec.u64();
  reply.sequence = dec.u64();
  reply.slot = dec.u64();
  std::uint8_t op = dec.u8();
  if (op < 1 || op > 5) return std::nullopt;
  reply.op = static_cast<OpKind>(op);
  reply.result.ok = dec.boolean();
  reply.result.found = dec.boolean();
  reply.result.value = dec.str();
  if (!dec.ok()) return std::nullopt;
  return reply;
}

crypto::Digest Reply::match_digest() const {
  // The digest covers the slot and the full result (op echoed for
  // domain hygiene), NOT the client identity — that part is matched
  // structurally by the session before digests are compared.
  Encoder enc = Encoder::scratch();
  enc.u64(slot);
  enc.u8(static_cast<std::uint8_t>(op));
  enc.boolean(result.ok);
  enc.boolean(result.found);
  enc.str(result.value);
  return crypto::sha256(enc.view());
}

Bytes encode_reply_payload(const Reply& reply, const crypto::Signer& signer) {
  Encoder enc(1 + 8 * 3 + 3 + 4 + reply.result.value.size() + 4 +
              crypto::kSignatureSize);
  enc.u8(net::tags::kSmrReply);
  reply.encode(enc);
  // The signature covers the reply's encoding, which is already in the
  // payload right after the tag.
  crypto::Signature sig =
      signer.sign(kReplyDomain, enc.view().sub(1, enc.size() - 1));
  sig.encode(enc);
  return std::move(enc).take();
}

std::optional<Reply> decode_reply_payload(ByteView payload, ProcessId from,
                                          const crypto::Verifier& verifier) {
  Decoder dec(payload);
  dec.u8();
  auto reply = Reply::decode(dec);
  auto sig = crypto::Signature::decode(dec);
  if (!reply || !sig || !dec.ok() || !dec.at_end()) return std::nullopt;
  // Checked against the canonical re-encoding, in a pooled buffer that
  // goes back to the pool.
  Encoder preimage = Encoder::scratch();
  reply->encode(preimage);
  if (!verifier.verify(from, kReplyDomain, preimage.view(), *sig)) {
    return std::nullopt;
  }
  return reply;
}

}  // namespace fastbft::smr
