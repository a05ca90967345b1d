#pragma once

#include <functional>
#include <type_traits>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"

/// \file transport.hpp
/// Abstract point-to-point transport. Protocol engines talk only to this
/// interface, so the same replica code runs over the deterministic simulated
/// network (net::SimNetwork) or any future real transport.
///
/// Payloads travel as SharedBytes: one immutable buffer with shared
/// ownership. A broadcast therefore materializes the payload once and every
/// recipient's envelope aliases it — the zero-copy fan-out the throughput
/// benchmarks measure (see net::PayloadStats). Plain Bytes convert
/// implicitly at the call site, so `send(to, msg.serialize())` still reads
/// naturally and costs exactly one materialization.

namespace fastbft::net {

/// A message in flight. `payload` begins with a one-byte type tag (see
/// consensus/messages.hpp) which the statistics collector also uses; it is
/// immutable and may be shared with the envelopes of every other recipient
/// of a broadcast.
struct Envelope {
  ProcessId from;
  ProcessId to;
  SharedBytes payload;
};

/// A borrowed wire message: anything with `void encode(Encoder&) const`
/// that writes its tag byte and body. It lets the transport pick the
/// buffer the message is encoded into (Transport::send_message). The
/// message must outlive the call it is passed to.
class MessageRef {
 public:
  template <typename M>
    requires(!std::is_same_v<M, MessageRef>)
  MessageRef(const M& msg)  // NOLINT(google-explicit-constructor)
      : msg_(&msg), encode_([](const void* m, Encoder& enc) {
          static_cast<const M*>(m)->encode(enc);
        }) {}

  void encode(Encoder& enc) const { encode_(msg_, enc); }

 private:
  const void* msg_;
  void (*encode_)(const void*, Encoder&);
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends `payload` from the bound process to `to`. Sending to self is
  /// allowed and is delivered like any other message (with delay zero in the
  /// simulated network).
  virtual void send(ProcessId to, SharedBytes payload) = 0;

  /// Number of processes in the cluster (membership is static).
  virtual std::uint32_t cluster_size() const = 0;

  virtual ProcessId self() const = 0;

  /// Sends to every process, including self, sharing one payload buffer
  /// across all recipients. Virtual so wrapping transports (e.g. the SMR
  /// engine's per-slot channel) can frame the payload once per broadcast
  /// instead of once per recipient.
  virtual void broadcast(SharedBytes payload);

  /// Sends to every process except self.
  virtual void broadcast_others(SharedBytes payload);

  /// Sends / broadcasts one message. The defaults encode it into one
  /// exact-size buffer and call send() / broadcast(); a framing transport
  /// (the SMR engine's slot channel) overrides them to write its header
  /// and the message into that one buffer.
  virtual void send_message(ProcessId to, MessageRef msg);
  virtual void broadcast_message(MessageRef msg);
};

using ReceiveHandler = std::function<void(ProcessId from, const Bytes& payload)>;

}  // namespace fastbft::net
