#include "adversary/recording_transport.hpp"

#include <cinttypes>
#include <cstdio>

#include "net/tags.hpp"

namespace fastbft::adversary {

WireKind classify_payload(ByteView payload) {
  WireKind kind;
  if (payload.empty()) return kind;
  kind.tag = payload[0];
  bool grouped = (kind.tag >= net::tags::kSmrWrapped &&
                  kind.tag <= net::tags::kSmrSnapResponse) ||
                 kind.tag == net::tags::kSmrDecidedPull;
  if (grouped && payload.size() >= 5) {
    kind.grouped = true;
    kind.group = static_cast<GroupId>(payload[1]) |
                 (static_cast<GroupId>(payload[2]) << 8) |
                 (static_cast<GroupId>(payload[3]) << 16) |
                 (static_cast<GroupId>(payload[4]) << 24);
  }
  return kind;
}

std::string tag_name(std::uint8_t tag) {
  using namespace net::tags;
  switch (tag) {
    case kPropose: return "PROPOSE";
    case kAck: return "ACK";
    case kAckSig: return "ACK_SIG";
    case kCommit: return "COMMIT";
    case kVote: return "VOTE";
    case kCertReq: return "CERT_REQ";
    case kCertAck: return "CERT_ACK";
    case kWish: return "WISH";
    case kSmrRequest: return "SMR_REQUEST";
    case kSmrWrapped: return "SMR_WRAPPED";
    case kSmrDecided: return "SMR_DECIDED";
    case kSmrSnapRequest: return "SMR_SNAP_REQ";
    case kSmrSnapResponse: return "SMR_SNAP_RESP";
    case kSmrReply: return "SMR_REPLY";
    case kSmrDecidedPull: return "SMR_PULL";
    default: {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "TAG_%02X", tag);
      return buf;
    }
  }
}

void EnvelopeLog::record(const net::Envelope& env, TimePoint sent,
                         TimePoint delivered) {
  ByteView payload = env.payload;
  RecordedEnvelope rec;
  rec.sent = sent;
  rec.delivered = delivered;
  rec.from = env.from;
  rec.to = env.to;
  rec.kind = classify_payload(payload);
  rec.bytes = static_cast<std::uint32_t>(payload.size());
  records_.push_back(rec);
  payloads_.push_back(env.payload);

  // Fold the envelope into the running digest: header fields as
  // little-endian u32 words, then the raw payload. Order-sensitive by
  // construction — equal digests mean equal byte streams in equal order.
  hasher_.update_u32(static_cast<std::uint32_t>(sent));
  hasher_.update_u32(static_cast<std::uint32_t>(sent >> 32));
  hasher_.update_u32(static_cast<std::uint32_t>(delivered));
  hasher_.update_u32(static_cast<std::uint32_t>(delivered >> 32));
  hasher_.update_u32(env.from);
  hasher_.update_u32(env.to);
  hasher_.update_u32(rec.bytes);
  hasher_.update(payload);

  ++count_;
  total_bytes_ += payload.size();
}

crypto::Digest EnvelopeLog::digest() const {
  // Sha256::finalize is destructive; snapshot the streaming state so the
  // log can keep recording after a mid-run digest query.
  crypto::Sha256 snapshot = hasher_;
  return snapshot.finalize();
}

std::string EnvelopeLog::dump(std::size_t max_lines) const {
  std::string out;
  std::size_t start =
      records_.size() > max_lines ? records_.size() - max_lines : 0;
  if (start > 0) {
    out += "... (" + std::to_string(start) + " earlier envelopes)\n";
  }
  char line[160];
  for (std::size_t i = start; i < records_.size(); ++i) {
    const RecordedEnvelope& r = records_[i];
    if (r.kind.grouped) {
      std::snprintf(line, sizeof(line),
                    "[%8" PRId64 " -> %8" PRId64 "] %3u -> %3u  %-13s g%-3u %u B\n",
                    r.sent, r.delivered, r.from, r.to,
                    tag_name(r.kind.tag).c_str(), r.kind.group, r.bytes);
    } else {
      std::snprintf(line, sizeof(line),
                    "[%8" PRId64 " -> %8" PRId64 "] %3u -> %3u  %-13s      %u B\n",
                    r.sent, r.delivered, r.from, r.to,
                    tag_name(r.kind.tag).c_str(), r.bytes);
    }
    out += line;
  }
  return out;
}

void EnvelopeLog::replay_into(
    const std::function<void(ProcessId from, ProcessId to,
                             const Bytes& payload)>& sink) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    sink(records_[i].from, records_[i].to, payloads_[i].get());
  }
}

}  // namespace fastbft::adversary
