#include "replay.hpp"

#include <cstdio>
#include <memory>

#include "common/codec.hpp"
#include "consensus/messages.hpp"
#include "consensus/types.hpp"
#include "crypto/signer.hpp"
#include "crypto/verify_cache.hpp"
#include "net/tags.hpp"
#include "smr/batch.hpp"
#include "smr/kvstore.hpp"
#include "smr/reply.hpp"

namespace perfbench {

namespace tags = fastbft::net::tags;
using fastbft::ByteView;
using fastbft::Decoder;
namespace consensus = fastbft::consensus;
namespace crypto = fastbft::crypto;
namespace smr = fastbft::smr;

namespace {

/// Splits an SMR_WRAPPED payload into its slot and inner consensus
/// message (the header layout is the engine's documented wire format).
bool unwrap(ByteView payload, std::uint64_t& slot, ByteView& inner) {
  Decoder dec(payload);
  if (dec.u8() != tags::kSmrWrapped) return false;
  dec.u32();  // group
  slot = dec.u64();
  dec.u64();  // applied watermark
  dec.u64();  // snapshot floor
  inner = dec.bytes_view();
  return dec.ok() && dec.at_end() && !inner.empty();
}

bool all_noops(const fastbft::Value& x) {
  auto batch = smr::decode_batch(x);
  if (!batch) return false;
  for (const auto& cmd : *batch) {
    if (cmd.kind != smr::OpKind::Noop) return false;
  }
  return true;
}

const char* kind_name(std::uint8_t tag) {
  switch (tag) {
    case tags::kPropose: return "propose";
    case tags::kAck: return "ack";
    case tags::kAckSig: return "acksig";
    case tags::kCommit: return "commit";
    case tags::kVote: return "vote";
    case tags::kCertReq: return "certreq";
    case tags::kCertAck: return "certack";
    case tags::kWish: return "wish";
    default: return "other";
  }
}

/// Mean of a sample of call durations, in µs.
struct Timing {
  double total_ns = 0;
  std::uint64_t calls = 0;
  void add(std::int64_t ns) {
    total_ns += static_cast<double>(ns);
    ++calls;
  }
  double mean_us() const { return calls == 0 ? 0 : total_ns / calls / 1000.0; }
};

/// Times one call, records it as a span and in `timing`.
template <typename F>
auto timed(Timing& timing, SpanLog* spans, const char* name, F&& fn) {
  const std::int64_t start = wall_now_ns();
  auto result = fn();
  const std::int64_t end = wall_now_ns();
  timing.add(end - start);
  if (spans != nullptr) spans->add(0, 0, name, "wall", start, end);
  return result;
}

}  // namespace

void Recording::observe(const fastbft::net::Envelope& env, TimePoint sent,
                        std::uint32_t episode) {
  const fastbft::Bytes& bytes = env.payload.get();
  // The envelopes of one broadcast share a buffer and arrive back to back.
  const bool first_of_send =
      bytes.data() != last_buffer_ || env.from != last_from_;
  last_buffer_ = bytes.data();
  last_from_ = env.from;

  bool keep = false;
  for (const auto& [from, to] : windows) {
    if (sent >= from && sent < to) keep = true;
  }
  if (keep) kept.push_back(Kept{env.from, env.to, env.payload});

  if (bytes.empty()) return;
  if (bytes[0] == tags::kSmrReply) {
    ++replies;
    if (first_of_send) ++sends_by_kind[tags::kSmrReply];
    return;
  }
  std::uint64_t slot = 0;
  ByteView inner;
  if (!unwrap(bytes, slot, inner)) return;
  slot |= static_cast<std::uint64_t>(episode) << 40;
  ++wrapped;
  const std::uint8_t kind = inner[0];
  ++envelopes_by_kind[kind];
  if (first_of_send) ++sends_by_kind[kind];
  slot_is_noop.try_emplace(slot, true);
  if (kind == tags::kVote || kind == tags::kCertReq) {
    view_change_slots.insert(slot);
  }
  if (kind == tags::kPropose && first_of_send) {
    auto msg = consensus::parse_message(inner);
    if (msg) {
      slot_is_noop[slot] = all_noops(std::get<consensus::ProposeMsg>(*msg).x);
    }
  }
}

void replay_layers(const Recording& recording, const SimOutcome& sim,
                   const SimShape& shape, std::uint64_t seed, SpanLog* spans,
                   Report& report) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, recording.ops));
  auto keys = std::make_shared<const crypto::KeyStore>(kKeySeed, 4);
  const crypto::Verifier verifier(keys);

  std::map<std::uint8_t, Timing> decode;  // parse_message per kind
  Timing batch_decode, digest, sign, verify, reply_check, apply;
  std::map<ProcessId, std::unique_ptr<crypto::Verifier>> memo;
  std::uint64_t bad_signatures = 0;
  std::uint64_t bad_decodes = 0;

  auto memo_check = [&](ProcessId receiver, ProcessId signer,
                        const std::string& domain, const crypto::Digest& d,
                        const crypto::Signature& sig) {
    auto& v = memo[receiver];
    if (!v) {
      v = std::make_unique<crypto::Verifier>(
          keys, std::make_shared<crypto::VerificationCache>());
    }
    if (!v->verify_digest_memo(signer, domain, d, sig)) ++bad_signatures;
  };
  auto memo_vote = [&](ProcessId receiver, const consensus::VoteRecord& rec,
                       fastbft::View v) {
    memo_check(receiver, rec.voter, consensus::kDomVote,
               crypto::message_digest(
                   consensus::vote_preimage(rec.vote, rec.cc, v)),
               rec.phi);
    if (rec.cc) {
      const auto d = consensus::xv_preimage_digest(rec.cc->x, rec.cc->v);
      for (const auto& e : rec.cc->sigs) {
        memo_check(receiver, e.signer, consensus::kDomAck, d, e.sig);
      }
    }
  };

  for (const auto& env : recording.kept) {
    const fastbft::Bytes& bytes = env.payload.get();
    if (bytes.empty()) continue;
    if (bytes[0] == tags::kSmrReply) {
      auto reply = timed(reply_check, spans, "smr.decode_reply_payload", [&] {
        return smr::decode_reply_payload(bytes, env.from, verifier);
      });
      if (!reply) ++bad_decodes;
      continue;
    }
    std::uint64_t slot = 0;
    ByteView inner;
    if (!unwrap(bytes, slot, inner)) continue;
    const std::uint8_t kind = inner[0];
    auto msg = timed(decode[kind], spans, "consensus.parse_message",
                     [&] { return consensus::parse_message(inner); });
    if (!msg) {
      if (kind != tags::kWish) ++bad_decodes;
      continue;
    }
    if (auto* p = std::get_if<consensus::ProposeMsg>(&*msg)) {
      auto batch = timed(batch_decode, spans, "smr.decode_batch",
                         [&] { return smr::decode_batch(p->x); });
      if (!batch) ++bad_decodes;
      timed(digest, spans, "crypto.message_digest",
            [&] { return crypto::message_digest(p->x.bytes()); });
      const auto d = consensus::xv_preimage_digest(p->x, p->v);
      const crypto::Signer signer(keys, env.to < 4 ? env.to : 0);
      timed(sign, spans, "crypto.sign_digest",
            [&] { return signer.sign_digest(consensus::kDomAck, d); });
      for (const auto& e : p->sigma.acks) {
        memo_check(env.to, e.signer, consensus::kDomCertAck, d, e.sig);
      }
    } else if (auto* a = std::get_if<consensus::AckSigMsg>(&*msg)) {
      const auto d = consensus::xv_preimage_digest(a->x, a->v);
      const bool ok = timed(verify, spans, "crypto.verify_digest", [&] {
        return verifier.verify_digest(env.from, consensus::kDomAck, d,
                                      a->phi_ack);
      });
      if (!ok) ++bad_signatures;
    } else if (auto* c = std::get_if<consensus::CommitMsg>(&*msg)) {
      const auto d = consensus::xv_preimage_digest(c->cc.x, c->cc.v);
      for (const auto& e : c->cc.sigs) {
        memo_check(env.to, e.signer, consensus::kDomAck, d, e.sig);
      }
    } else if (auto* vm = std::get_if<consensus::VoteMsg>(&*msg)) {
      memo_vote(env.to, vm->record, vm->v);
    } else if (auto* cr = std::get_if<consensus::CertReqMsg>(&*msg)) {
      for (const auto& rec : cr->votes) memo_vote(env.to, rec, cr->v);
    }
  }

  // The state machine on the workload's own command stream.
  {
    smr::KvStore store;
    std::uint64_t sequence = 0;
    for (std::uint32_t s = 0; s < shape.sessions; ++s) {
      OpStream stream(seed, s, shape.get_share);
      for (int i = 0; i < 10000; ++i) {
        const Op op = stream.next();
        const smr::Command cmd =
            op.is_get ? smr::Command::get(key_name(op.key), 1, ++sequence)
                      : smr::Command::put(key_name(op.key),
                                          make_value(op.key, op.tag,
                                                     shape.value_bytes),
                                          1, ++sequence);
        timed(apply, spans, "smr.KvStore::apply",
              [&] { return store.apply(cmd); });
      }
    }
  }

  if (bad_signatures > 0) {
    report.problem("replay: " + std::to_string(bad_signatures) +
                   " recorded signatures failed to verify");
  }
  if (bad_decodes > 0) {
    report.problem("replay: " + std::to_string(bad_decodes) +
                   " recorded payloads failed to decode");
  }

  // Receiver-side decode cost, weighted by each kind's share of the run.
  double decode_ns_total = 0;
  std::uint64_t decoded_envelopes = 0;
  std::string per_kind;
  for (const auto& [kind, count] : recording.envelopes_by_kind) {
    auto it = decode.find(kind);
    if (it == decode.end() || it->second.calls == 0) continue;
    decode_ns_total += it->second.mean_us() * 1000.0 * count;
    decoded_envelopes += count;
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s %.3f us x %llu;", kind_name(kind),
                  it->second.mean_us(), static_cast<unsigned long long>(count));
    per_kind += buf;
  }
  report.note("consensus.parse_message per kind:" + per_kind);

  auto kind_count = [&](const std::map<std::uint8_t, std::uint64_t>& m,
                        std::uint8_t tag) -> double {
    auto it = m.find(tag);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto& env_kinds = recording.envelopes_by_kind;
  const auto& send_kinds = recording.sends_by_kind;
  const double signed_sends =
      kind_count(send_kinds, tags::kPropose) +
      kind_count(send_kinds, tags::kAckSig) +
      kind_count(send_kinds, tags::kCertAck) +
      kind_count(send_kinds, tags::kVote) +
      kind_count(send_kinds, tags::kSmrReply);
  const double checked_signatures =
      kind_count(env_kinds, tags::kPropose) +
      kind_count(env_kinds, tags::kAckSig) +
      kind_count(env_kinds, tags::kCertAck) +
      kind_count(env_kinds, tags::kVote) + static_cast<double>(recording.replies);
  const double proposals = kind_count(env_kinds, tags::kPropose);

  std::uint64_t hits = 0, lookups = 0;
  for (const auto& [receiver, v] : memo) {
    hits += v->cache()->hits();
    lookups += v->cache()->hits() + v->cache()->misses();
  }

  const double slots =
      static_cast<double>(std::max<std::size_t>(1, recording.slot_is_noop.size()));
  std::uint64_t noop_slots = 0;
  for (const auto& [slot, noop] : recording.slot_is_noop) noop_slots += noop;

  report.add_layer("consensus.decode_us",
                   decoded_envelopes == 0
                       ? 0
                       : decode_ns_total / 1000.0 / decoded_envelopes,
                   "us");
  report.add_layer("consensus.busy_us_per_op", decode_ns_total / 1000.0 / ops,
                   "us");
  report.add_layer("consensus.msgs_per_slot",
                   static_cast<double>(recording.wrapped) / slots, "count");
  report.add_layer("consensus.view_change_slots",
                   static_cast<double>(recording.view_change_slots.size()),
                   "count");

  report.add_layer("crypto.sigs_per_op", signed_sends / ops, "count");
  report.add_layer("crypto.sign_us", sign.mean_us(), "us");
  report.add_layer("crypto.verify_us", verify.mean_us(), "us");
  report.add_layer("crypto.digest_us", digest.mean_us(), "us");
  report.add_layer("crypto.memo_hit_ratio",
                   lookups == 0 ? 0 : static_cast<double>(hits) / lookups,
                   "ratio");
  report.add_layer("crypto.busy_us_per_op",
                   (sign.mean_us() * signed_sends +
                    verify.mean_us() * checked_signatures +
                    digest.mean_us() * proposals) /
                       ops,
                   "us");

  report.add_layer("smr.apply_us", apply.mean_us(), "us");
  report.add_layer("smr.reply_check_us", reply_check.mean_us(), "us");
  report.add_layer("smr.batch_decode_us", batch_decode.mean_us(), "us");
  report.add_layer("smr.busy_us_per_op",
                   apply.mean_us() * 4 +
                       (reply_check.mean_us() *
                            static_cast<double>(recording.replies) +
                        batch_decode.mean_us() * proposals) /
                           ops,
                   "us");

  report.add_layer("engine.ops_per_slot", ops / slots, "count");
  report.add_layer("engine.noop_slot_share",
                   static_cast<double>(noop_slots) / slots, "ratio");

  report.add_layer("net.msgs_per_op",
                   static_cast<double>(sim.net_messages) / ops, "count");
  report.add_layer("net.bytes_per_op",
                   static_cast<double>(sim.net_bytes) / ops, "B");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "replayed %zu kept envelopes; memo lookups %llu; %.0f slots "
                "(%llu noop) for %.0f ops",
                recording.kept.size(), static_cast<unsigned long long>(lookups),
                slots, static_cast<unsigned long long>(noop_slots), ops);
  report.note(buf);
}

}  // namespace perfbench
