#pragma once

#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "net/transport.hpp"

/// \file recording_transport.hpp
/// Recording instruments for adversarial schedules.
///
/// RecordingTransport records outgoing messages instead of delivering
/// them. Scripted experiments (notably the Theorem 4.5 lower-bound attack)
/// crank replicas by hand: they inspect each process's outbox and deliver
/// exactly the messages the adversarial schedule allows, in the order it
/// dictates.
///
/// EnvelopeLog is the delivery-side sibling used by the chaos harness
/// (src/chaos) and drawn by the trace renderer (src/trace): attached as a
/// net::SimNetwork observer it records every
/// message the network schedules — sender, receiver, send/delivery times,
/// the wire tag and (for group-scoped SMR traffic) the GroupId — and folds
/// every payload byte into a running SHA-256. Two runs with equal digests
/// delivered byte-identical message streams in the identical order, which
/// is how `chaos_fuzz --seed` proves a replay is bit-for-bit faithful.

namespace fastbft::adversary {

class RecordingTransport final : public net::Transport {
 public:
  RecordingTransport(ProcessId self, std::uint32_t n) : self_(self), n_(n) {}

  void send(ProcessId to, SharedBytes payload) override {
    outbox_.push_back(net::Envelope{self_, to, std::move(payload)});
  }

  std::uint32_t cluster_size() const override { return n_; }
  ProcessId self() const override { return self_; }

  /// Returns and clears everything sent since the last take.
  std::vector<net::Envelope> take_outbox() {
    std::vector<net::Envelope> out = std::move(outbox_);
    outbox_.clear();
    return out;
  }

  const std::vector<net::Envelope>& peek_outbox() const { return outbox_; }

 private:
  ProcessId self_;
  std::uint32_t n_;
  std::vector<net::Envelope> outbox_;
};

/// Wire identity of one payload: the tag byte plus, for the group-scoped
/// SMR tags (0x41-0x44 and 0x46, which carry a u32 GroupId right after the
/// tag — see net/tags.hpp and docs/SHARDING.md), the group it belongs to.
struct WireKind {
  std::uint8_t tag = 0;
  bool grouped = false;
  GroupId group = 0;
};

/// Classifies a raw payload without a full decode (same fixed-offset peek
/// the sharded SmrNode uses for routing).
WireKind classify_payload(ByteView payload);

/// Human-readable name for a wire tag ("SMR_WRAPPED", "PROPOSE", ...).
std::string tag_name(std::uint8_t tag);

/// One delivered (or scheduled-for-delivery) message, as observed at send
/// time. `delivered == kTimeInfinity` marks a message a DeliveryScript
/// parked.
struct RecordedEnvelope {
  TimePoint sent = 0;
  TimePoint delivered = 0;
  ProcessId from = 0;
  ProcessId to = 0;
  WireKind kind;
  std::uint32_t bytes = 0;
};

/// Append-only log of every envelope a run scheduled, with a running
/// digest over the full byte stream. Attach via
/// `net.set_observer([&log](const auto&... a) { log.record(a...); })` — the
/// chaos harness does exactly this.
class EnvelopeLog {
 public:
  void record(const net::Envelope& env, TimePoint sent, TimePoint delivered);

  const std::vector<RecordedEnvelope>& records() const { return records_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Order-sensitive SHA-256 over (sent, delivered, from, to, payload) of
  /// every recorded envelope so far.
  crypto::Digest digest() const;

  /// At most `max_lines` formatted entries from the tail of the log
  /// (where a failure's final messages live).
  std::string dump(std::size_t max_lines = 40) const;

  /// Re-injects the recorded payload stream into `sink` in recorded
  /// order, as (from, to, payload) — the morphling-style replay primitive
  /// for driving a node with a captured message vector.
  void replay_into(
      const std::function<void(ProcessId from, ProcessId to,
                               const Bytes& payload)>& sink) const;

 private:
  std::vector<RecordedEnvelope> records_;
  /// Payloads retained for replay_into; aliases the recorded SharedBytes.
  std::vector<SharedBytes> payloads_;
  crypto::Sha256 hasher_;
  std::uint64_t count_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace fastbft::adversary
