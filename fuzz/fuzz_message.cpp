#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "consensus/messages.hpp"
#include "engine/catchup.hpp"
#include "net/tags.hpp"
#include "smr/batch.hpp"

/// \file fuzz_message.cpp
/// Fuzzes the protocol-message decode surface: every byte of `data` is
/// treated as one untrusted wire payload, exactly as a replica receives
/// it from a (possibly Byzantine) peer.
///
/// Three nested layers are exercised, mirroring the real inbound path:
///
///   1. consensus::parse_message over the raw payload — the seven core
///      protocol tags, each with certificates/signature vectors inside.
///   2. The SMR_WRAPPED envelope decode (tag, group, slot, watermark,
///      snapshot floor, length-prefixed inner) with the inner payload
///      parsed as a consensus message THROUGH THE VIEW — no copy — which
///      is the aliasing pattern SlotMux::on_wrapped relies on.
///   3. smr::decode_batch over any Value a ProposeMsg/AckMsg carried,
///      the batch layer a decided value flows into.
///   4. The SMR_PULL decode (engine::decode_decided_pull), for the group
///      the payload names and for group 0 — the node routes by the peeked
///      group, and the engine must still reject a foreign one.
///
/// Every consensus parse is repeated with a `known` value (parse_message's
/// hint, which a replica passes its vote or input as): once with a
/// byte-equal copy of the message's own value and once with an unrelated
/// value. The hint may only change which buffer the value lives in, never
/// whether the payload parses or what it parses to. Signature fields are
/// also re-encoded at a length taken from the input: only 0 (none) and
/// kSignatureSize may parse.
///
/// The contract under test: decoding is total. Any input either yields a
/// well-formed object or nullopt; no crash, no UB, no unbounded
/// allocation. Round-trip: anything that parses must re-serialize and
/// re-parse equal.

namespace {

using fastbft::ByteView;
using fastbft::Decoder;

void exercise_batch(const fastbft::Value& value) {
  auto batch = fastbft::smr::decode_batch(value);
  if (!batch) return;
  // Re-encoding a decoded batch must succeed (encode asserts nothing
  // about command contents) unless it was empty.
  if (!batch->empty()) {
    (void)fastbft::smr::encode_batch(*batch);
  }
}

/// The top-level value of a parsed message (each alternative but a vote
/// carries one).
const fastbft::Value* top_value(const fastbft::consensus::Message& msg) {
  return std::visit(
      [](const auto& m) -> const fastbft::Value* {
        if constexpr (requires { m.x; }) {
          return &m.x;
        } else {
          return nullptr;
        }
      },
      msg);
}

/// Parsing with a known value must agree with parsing without one.
void exercise_hints(ByteView payload,
                    const std::optional<fastbft::consensus::Message>& plain) {
  using fastbft::consensus::parse_message;
  const fastbft::Value unrelated = fastbft::Value::of_string("unrelated");
  std::vector<fastbft::Value> hints{unrelated};
  if (plain) {
    if (const fastbft::Value* own = top_value(*plain)) {
      hints.push_back(fastbft::Value(own->bytes()));  // equal, own buffer
    }
  }
  for (const fastbft::Value& hint : hints) {
    auto hinted = parse_message(payload, &hint);
    if (hinted.has_value() != plain.has_value()) __builtin_trap();
    if (hinted && !(*hinted == *plain)) __builtin_trap();
  }
}

/// Rebuilds a signed message around a signature field of `len` bytes:
/// it must parse exactly when the length is 0 or kSignatureSize.
void exercise_signature_length(std::size_t len, std::uint8_t fill) {
  using fastbft::consensus::parse_message;
  fastbft::Bytes sig(len, fill);
  for (std::uint8_t tag : {fastbft::net::tags::kAckSig,
                           fastbft::net::tags::kCertAck}) {
    fastbft::Encoder enc;
    enc.u8(tag);
    enc.u64(2);
    fastbft::Value::of_string("x").encode(enc);
    enc.bytes(sig);
    bool parsed = parse_message(enc.view()).has_value();
    if (parsed != (len == 0 || len == fastbft::crypto::kSignatureSize)) {
      __builtin_trap();
    }
  }
}

void exercise_consensus(ByteView payload) {
  auto msg = fastbft::consensus::parse_message(payload);
  exercise_hints(payload, msg);
  if (!msg) return;
  (void)fastbft::consensus::message_view(*msg);
  // Whatever parsed must round-trip: serialize, re-parse, compare.
  std::visit(
      [&](const auto& m) {
        fastbft::Bytes wire = m.serialize();
        auto again = fastbft::consensus::parse_message(wire);
        if (!again || !(*again == *msg)) __builtin_trap();
      },
      *msg);
  if (const auto* propose =
          std::get_if<fastbft::consensus::ProposeMsg>(&*msg)) {
    exercise_batch(propose->x);
  } else if (const auto* ack =
                 std::get_if<fastbft::consensus::AckMsg>(&*msg)) {
    exercise_batch(ack->x);
  }
}

/// SMR_WRAPPED{tag, group, slot, watermark, snap_floor, inner}: decode
/// the envelope the way SlotMux::on_wrapped does — the inner payload is a
/// ByteView aliasing the outer buffer — then parse the inner bytes as a
/// consensus message through that view.
void exercise_wrapped(ByteView payload) {
  Decoder dec(payload);
  std::uint8_t tag = dec.u8();
  (void)dec.u32();  // group
  (void)dec.u64();  // slot
  (void)dec.u64();  // watermark
  (void)dec.u64();  // snapshot floor
  ByteView inner = dec.bytes_view();
  if (!dec.ok() || !dec.at_end() || tag != fastbft::net::tags::kSmrWrapped) {
    return;
  }
  exercise_consensus(inner);
}

/// SMR_PULL{tag, group, slot}: whatever decodes must re-encode to the
/// identical bytes (the decoder rejects trailing bytes and slot 0), and a
/// decode for any other group must fail.
void exercise_pull(ByteView payload) {
  Decoder peek(payload);
  (void)peek.u8();
  fastbft::GroupId group = peek.u32();
  for (fastbft::GroupId g : {group, fastbft::GroupId{0}}) {
    auto slot = fastbft::engine::decode_decided_pull(payload, g);
    if (!slot) continue;
    if (*slot == 0 || g != group) __builtin_trap();
    fastbft::Bytes again = fastbft::engine::encode_decided_pull(g, *slot);
    if (!std::equal(again.begin(), again.end(), payload.begin(),
                    payload.end())) {
      __builtin_trap();
    }
    if (fastbft::engine::decode_decided_pull(payload, g + 1)) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteView payload(data, size);
  exercise_consensus(payload);
  if (size >= 2) exercise_signature_length(data[0] % 72, data[1]);
  exercise_wrapped(payload);
  exercise_pull(payload);
  return 0;
}
