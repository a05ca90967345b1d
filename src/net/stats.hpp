#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/types.hpp"

/// \file stats.hpp
/// Per-message-type traffic accounting. The first payload byte is the type
/// tag; the pretty-printer maps known tags to names so benchmark output is
/// readable. SMR_WRAPPED payloads additionally carry an inner consensus
/// message, which is counted by its own tag.

namespace fastbft::net {

/// Payload materialization counters (allocations avoided by SharedBytes
/// sharing). Defined next to SharedBytes in common/bytes.hpp — the common
/// layer cannot depend on net — and re-exported here so benchmark/test
/// code finds all traffic accounting in net::stats.
using PayloadStats = fastbft::PayloadStats;

struct TypeStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

class NetworkStats {
 public:
  void record_send(const Bytes& payload);

  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Messages of one tag (0 if none seen).
  std::uint64_t messages_of(std::uint8_t tag) const;

  // --- SMR_WRAPPED traffic -------------------------------------------------

  /// SMR_WRAPPED messages whose inner consensus message has `tag`.
  std::uint64_t wrapped_messages_of(std::uint8_t tag) const;

  void reset();

  /// Multi-line human-readable summary.
  std::string summary() const;

 private:
  /// Indexed by tag; a tag was seen iff its count is non-zero.
  std::array<TypeStats, 256> by_type_{};
  /// SMR_WRAPPED messages by inner tag.
  std::array<std::uint64_t, 256> wrapped_by_type_{};
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Maps a payload tag to a short name ("PROPOSE", "ACK", ...). Unknown tags
/// render as hex.
std::string tag_name(std::uint8_t tag);

// --- Socket-transport counters ----------------------------------------------

/// Every socket counter, named once: SUM(name) for event counts, which
/// add up under SocketCounters::merge, MAX(name) for high-water gauges,
/// which keep the larger side. The delivery pair is the zero-copy
/// invariant (it mirrors PayloadStats envelope accounting): one
/// delivery_alloc when a connection's delivery buffer had to grow, one
/// delivery_reuse when an inbound frame reached the receive handler out
/// of recycled capacity. In steady state reuses dominate and allocs
/// plateau.
#define FASTBFT_SOCKET_COUNTERS(SUM, MAX)                                   \
  SUM(connects_attempted)                                                   \
  SUM(connects_established)                                                 \
  SUM(reconnects)        /* established after a prior establish */          \
  SUM(handshake_rejects) /* bad magic/version/identity */                   \
  SUM(peer_downs)        /* rx-silence heartbeat timeouts */                \
  SUM(frames_in)                                                            \
  SUM(frames_out)                                                           \
  SUM(heartbeats_in)                                                        \
  SUM(heartbeats_out)                                                       \
  SUM(bytes_in)                                                             \
  SUM(bytes_out)                                                            \
  SUM(writev_calls)      /* frames_out / writev_calls = batching */         \
  SUM(frames_dropped)    /* send-queue cap overflow */                      \
  SUM(decode_errors)     /* oversized/garbage inbound framing */            \
  SUM(delivery_allocs)                                                      \
  SUM(delivery_reuses)                                                      \
  MAX(send_queue_high_water) /* max frames ever queued */

/// Plain snapshot of one connection's (or one aggregate's) counters.
/// Copyable, mergeable; what the smr_server stats dump and the socket
/// tests consume.
struct SocketCounters {
#define FASTBFT_COUNTER(name) std::uint64_t name = 0;
  FASTBFT_SOCKET_COUNTERS(FASTBFT_COUNTER, FASTBFT_COUNTER)
#undef FASTBFT_COUNTER

  SocketCounters& merge(const SocketCounters& o);

  /// Multi-line human-readable dump (indent prefixes every line).
  std::string summary(const std::string& indent = "") const;
};

/// Thread-safe (relaxed atomic) counter holder — one per socket link plus
/// one per network for link-independent events. Written by the readiness
/// loop, snapshot()-able from any thread (the SIGTERM stats dump, tests).
class SocketStats {
 public:
#define FASTBFT_COUNTER(name) std::atomic<std::uint64_t> name{0};
  FASTBFT_SOCKET_COUNTERS(FASTBFT_COUNTER, FASTBFT_COUNTER)
#undef FASTBFT_COUNTER

  void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.fetch_add(n, std::memory_order_relaxed);
  }
  void high_water(std::uint64_t depth) {
    std::uint64_t cur = send_queue_high_water.load(std::memory_order_relaxed);
    while (depth > cur && !send_queue_high_water.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
  }

  SocketCounters snapshot() const;
};

}  // namespace fastbft::net
