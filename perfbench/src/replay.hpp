#pragma once

// Traffic recording on the simulator and the per-layer replay built on it.
// A SimNetwork observer counts every envelope of a run and keeps the
// envelopes of a few short windows of virtual time. The kept payloads are
// replayed afterwards through the public decode, crypto and state-machine
// calls, each call timed as a span, which gives each layer's busy time.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bench.hpp"
#include "net/transport.hpp"

namespace perfbench {

struct Recording {
  /// Windows of virtual time whose envelopes are kept for replay.
  std::vector<std::pair<TimePoint, TimePoint>> windows;

  // Counted over the whole run.
  std::uint64_t wrapped = 0;  // SMR_WRAPPED envelopes (consensus traffic)
  std::map<std::uint8_t, std::uint64_t> envelopes_by_kind;  // inner tag
  std::map<std::uint8_t, std::uint64_t> sends_by_kind;  // a broadcast is 1
  std::uint64_t replies = 0;  // SMR_REPLY envelopes (replica -> client)
  /// Keyed by (episode << 40 | slot): each episode is a fresh cluster.
  std::map<std::uint64_t, bool> slot_is_noop;  // last proposal seen
  std::set<std::uint64_t> view_change_slots;   // carried VOTE or CERTREQ
  std::uint64_t ops = 0;  // completed client operations, set by the run

  struct Kept {
    ProcessId from;
    ProcessId to;
    fastbft::SharedBytes payload;
  };
  std::vector<Kept> kept;

  /// Observer body: count `env`, keep it if `sent` falls in a window.
  void observe(const fastbft::net::Envelope& env, TimePoint sent,
               std::uint32_t episode);

 private:
  const void* last_buffer_ = nullptr;
  ProcessId last_from_ = 0;
};

/// Replays the kept envelopes and the workload's command stream through
/// the layers' public calls and adds the per-layer metrics of the
/// consensus, crypto, smr and net layers that the recording gives.
/// Replay results that fail to verify are reported as problems.
void replay_layers(const Recording& recording, const SimOutcome& sim,
                   const SimShape& shape, std::uint64_t seed, SpanLog* spans,
                   Report& report);

}  // namespace perfbench
