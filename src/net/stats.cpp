#include "net/stats.hpp"

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

void NetworkStats::note_inflight_slots(ProcessId node,
                                       std::uint32_t inflight) {
  if (node >= inflight_by_node_.size()) inflight_by_node_.resize(node + 1);
  inflight_by_node_[node] = inflight;
  if (inflight > max_inflight_slots_) max_inflight_slots_ = inflight;
}

std::uint32_t NetworkStats::inflight_slots(ProcessId node) const {
  return node < inflight_by_node_.size() ? inflight_by_node_[node] : 0;
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
  inflight_by_node_.clear();
  max_inflight_slots_ = 0;
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
  if (by_type_[tags::kSmrWrapped].count > 0) {
    out << "  SMR max slots in flight per node: " << max_inflight_slots_
        << "\n";
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
  connects_attempted += o.connects_attempted;
  connects_established += o.connects_established;
  reconnects += o.reconnects;
  handshake_rejects += o.handshake_rejects;
  peer_downs += o.peer_downs;
  frames_in += o.frames_in;
  frames_out += o.frames_out;
  heartbeats_in += o.heartbeats_in;
  heartbeats_out += o.heartbeats_out;
  bytes_in += o.bytes_in;
  bytes_out += o.bytes_out;
  writev_calls += o.writev_calls;
  frames_dropped += o.frames_dropped;
  decode_errors += o.decode_errors;
  delivery_allocs += o.delivery_allocs;
  delivery_reuses += o.delivery_reuses;
  if (o.send_queue_high_water > send_queue_high_water)
    send_queue_high_water = o.send_queue_high_water;
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
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  c.connects_attempted = get(connects_attempted);
  c.connects_established = get(connects_established);
  c.reconnects = get(reconnects);
  c.handshake_rejects = get(handshake_rejects);
  c.peer_downs = get(peer_downs);
  c.frames_in = get(frames_in);
  c.frames_out = get(frames_out);
  c.heartbeats_in = get(heartbeats_in);
  c.heartbeats_out = get(heartbeats_out);
  c.bytes_in = get(bytes_in);
  c.bytes_out = get(bytes_out);
  c.writev_calls = get(writev_calls);
  c.frames_dropped = get(frames_dropped);
  c.decode_errors = get(decode_errors);
  c.delivery_allocs = get(delivery_allocs);
  c.delivery_reuses = get(delivery_reuses);
  c.send_queue_high_water = get(send_queue_high_water);
  return c;
}

}  // namespace fastbft::net
