#include "net/stats.hpp"

#include <algorithm>
#include <sstream>

#include "common/codec.hpp"
#include "net/tags.hpp"

namespace fastbft::net {

void NetworkStats::record_send(const Bytes& payload) {
  std::uint8_t tag = payload.empty() ? 0xff : payload[0];
  TypeStats& ts = by_type_[tag];
  ts.count += 1;
  ts.bytes += payload.size();
  total_messages_ += 1;
  total_bytes_ += payload.size();

  // SMR_WRAPPED carries its group, slot, the sender's applied watermark
  // and snapshot floor after the tag, then the inner consensus message;
  // count the message under the inner message's tag.
  if (tag == tags::kSmrWrapped) {
    Decoder dec(payload);
    dec.u8();
    dec.u32();  // group
    dec.u64();  // slot
    dec.u64();  // watermark
    dec.u64();  // snapshot floor
    ByteView inner = dec.bytes_view();
    if (dec.ok() && !inner.empty()) wrapped_by_type_[inner[0]] += 1;
  }
}

std::uint64_t NetworkStats::messages_of(std::uint8_t tag) const {
  return by_type_[tag].count;
}

std::uint64_t NetworkStats::wrapped_messages_of(std::uint8_t tag) const {
  return wrapped_by_type_[tag];
}

void NetworkStats::reset() {
  by_type_ = {};
  wrapped_by_type_ = {};
  total_messages_ = 0;
  total_bytes_ = 0;
}

std::string NetworkStats::summary() const {
  std::ostringstream out;
  out << "total: " << total_messages_ << " msgs, " << total_bytes_ << " bytes\n";
  for (std::size_t tag = 0; tag < by_type_.size(); ++tag) {
    const TypeStats& ts = by_type_[tag];
    if (ts.count == 0) continue;
    out << "  " << tag_name(static_cast<std::uint8_t>(tag)) << ": "
        << ts.count << " msgs, " << ts.bytes << " bytes\n";
  }
  return out.str();
}

std::string tag_name(std::uint8_t tag) {
  switch (tag) {
    case tags::kPropose: return "PROPOSE";
    case tags::kAck: return "ACK";
    case tags::kAckSig: return "ACK_SIG";
    case tags::kCommit: return "COMMIT";
    case tags::kVote: return "VOTE";
    case tags::kCertReq: return "CERT_REQ";
    case tags::kCertAck: return "CERT_ACK";
    case tags::kWish: return "WISH";
    case tags::kPbftPrePrepare: return "PBFT_PRE_PREPARE";
    case tags::kPbftPrepare: return "PBFT_PREPARE";
    case tags::kPbftCommit: return "PBFT_COMMIT";
    case tags::kPbftViewChange: return "PBFT_VIEW_CHANGE";
    case tags::kPbftNewView: return "PBFT_NEW_VIEW";
    case tags::kFabPropose: return "FAB_PROPOSE";
    case tags::kFabAccept: return "FAB_ACCEPT";
    case tags::kFabRecoveryVote: return "FAB_RECOVERY_VOTE";
    case tags::kSmrRequest: return "SMR_REQUEST";
    case tags::kSmrWrapped: return "SMR_WRAPPED";
    case tags::kSmrDecided: return "SMR_DECIDED";
    case tags::kSmrSnapRequest: return "SNAPSHOT_REQUEST";
    case tags::kSmrSnapResponse: return "SNAPSHOT_RESPONSE";
    case tags::kSmrReply: return "SMR_REPLY";
    case tags::kSmrDecidedPull: return "SMR_PULL";
    default: {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "TAG_0x%02x", tag);
      return buf;
    }
  }
}

SocketCounters& SocketCounters::merge(const SocketCounters& o) {
#define FASTBFT_SUM(name) name += o.name;
#define FASTBFT_MAX(name) name = std::max(name, o.name);
  FASTBFT_SOCKET_COUNTERS(FASTBFT_SUM, FASTBFT_MAX)
#undef FASTBFT_SUM
#undef FASTBFT_MAX
  return *this;
}

std::string SocketCounters::summary(const std::string& indent) const {
  std::ostringstream out;
  out << indent << "frames in/out: " << frames_in << "/" << frames_out
      << " (" << bytes_in << "/" << bytes_out << " bytes)\n";
  out << indent << "heartbeats in/out: " << heartbeats_in << "/"
      << heartbeats_out << "\n";
  out << indent << "writev: " << writev_calls << " calls";
  if (writev_calls > 0) {
    out << " (" << (static_cast<double>(frames_out) /
                    static_cast<double>(writev_calls))
        << " frames/call)";
  }
  out << "\n";
  out << indent << "connects: " << connects_attempted << " attempted, "
      << connects_established << " established, " << reconnects
      << " reconnects\n";
  out << indent << "faults: " << peer_downs << " peer-downs, "
      << handshake_rejects << " handshake rejects, " << decode_errors
      << " decode errors, " << frames_dropped << " dropped\n";
  out << indent << "delivery buffer: " << delivery_allocs << " allocs, "
      << delivery_reuses << " reuses\n";
  out << indent << "send queue high-water: " << send_queue_high_water
      << " frames\n";
  return out.str();
}

SocketCounters SocketStats::snapshot() const {
  SocketCounters c;
#define FASTBFT_LOAD(name) c.name = name.load(std::memory_order_relaxed);
  FASTBFT_SOCKET_COUNTERS(FASTBFT_LOAD, FASTBFT_LOAD)
#undef FASTBFT_LOAD
  return c;
}

}  // namespace fastbft::net
