#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

/// \file stats.hpp
/// Per-message-type traffic accounting. The first payload byte is the type
/// tag; the pretty-printer maps known tags to names so benchmark output is
/// readable. SMR_WRAPPED payloads additionally carry a slot index right
/// after the tag, which is broken out per slot so pipelined-SMR benchmarks
/// can attribute traffic to individual consensus slots, and an inner
/// consensus message, which is counted by its own tag; the SMR engine
/// also reports how many slots it has in flight (note_inflight_slots) so
/// the pipeline window is visible in the same place.

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

  // --- Per-slot accounting (SMR_WRAPPED traffic) ----------------------------

  /// Wrapped messages attributed to one slot (0 if none seen).
  std::uint64_t messages_for_slot(Slot slot) const;

  /// SMR_WRAPPED messages whose inner consensus message has `tag`.
  std::uint64_t wrapped_messages_of(std::uint8_t tag) const;

  /// Called by the SMR engine whenever its window changes: `inflight` is
  /// the number of consensus slots currently live on reporting node
  /// `node` (the stats object is shared by the whole simulated cluster,
  /// so the gauge is tracked per node).
  void note_inflight_slots(ProcessId node, std::uint32_t inflight);

  /// Most recent in-flight count reported by `node` (0 if never reported).
  std::uint32_t inflight_slots(ProcessId node) const;

  /// High-water in-flight count across all nodes and all time.
  std::uint32_t max_inflight_slots() const { return max_inflight_slots_; }

  void reset();

  /// Multi-line human-readable summary.
  std::string summary() const;

 private:
  /// Indexed by tag; a tag was seen iff its count is non-zero.
  std::array<TypeStats, 256> by_type_{};
  /// SMR_WRAPPED messages by inner tag.
  std::array<std::uint64_t, 256> wrapped_by_type_{};
  std::unordered_map<Slot, TypeStats> by_slot_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::vector<std::uint32_t> inflight_by_node_;
  std::uint32_t max_inflight_slots_ = 0;
};

/// Maps a payload tag to a short name ("PROPOSE", "ACK", ...). Unknown tags
/// render as hex.
std::string tag_name(std::uint8_t tag);

// --- Socket-transport counters ----------------------------------------------

/// Plain snapshot of one connection's (or one aggregate's) counters.
/// Copyable, mergeable; what the smr_server stats dump and the socket
/// tests consume.
struct SocketCounters {
  std::uint64_t connects_attempted = 0;
  std::uint64_t connects_established = 0;
  std::uint64_t reconnects = 0;        // established after a prior establish
  std::uint64_t handshake_rejects = 0; // bad magic/version/identity
  std::uint64_t peer_downs = 0;        // rx-silence heartbeat timeouts
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t heartbeats_in = 0;
  std::uint64_t heartbeats_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t writev_calls = 0;      // frames_out / writev_calls = batching
  std::uint64_t frames_dropped = 0;    // send-queue cap overflow
  std::uint64_t decode_errors = 0;     // oversized/garbage inbound framing
  /// Zero-copy invariant pair (mirrors PayloadStats envelope accounting):
  /// one delivery_alloc when the per-connection delivery buffer had to
  /// grow, one delivery_reuse when an inbound frame was handed to the
  /// receive handler out of recycled capacity. Steady state: reuses
  /// dominate, allocs plateau.
  std::uint64_t delivery_allocs = 0;
  std::uint64_t delivery_reuses = 0;
  std::uint64_t send_queue_high_water = 0;  // max frames ever queued

  SocketCounters& merge(const SocketCounters& o);

  /// Multi-line human-readable dump (indent prefixes every line).
  std::string summary(const std::string& indent = "") const;
};

/// Thread-safe (relaxed atomic) counter holder — one per socket link plus
/// one per network for link-independent events. Written by the readiness
/// loop, snapshot()-able from any thread (the SIGTERM stats dump, tests).
class SocketStats {
 public:
  std::atomic<std::uint64_t> connects_attempted{0};
  std::atomic<std::uint64_t> connects_established{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> handshake_rejects{0};
  std::atomic<std::uint64_t> peer_downs{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> heartbeats_in{0};
  std::atomic<std::uint64_t> heartbeats_out{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> writev_calls{0};
  std::atomic<std::uint64_t> frames_dropped{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> delivery_allocs{0};
  std::atomic<std::uint64_t> delivery_reuses{0};
  std::atomic<std::uint64_t> send_queue_high_water{0};

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
