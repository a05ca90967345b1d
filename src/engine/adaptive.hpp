#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/histogram.hpp"
#include "common/types.hpp"

/// \file adaptive.hpp
/// Closed-loop sizing of the engine's two throughput knobs — pipeline
/// depth and proposal batch size — from observed behaviour, instead of the
/// static `SlotMuxOptions::pipeline_depth` / `max_batch` chosen per
/// benchmark.
///
/// The controller is a per-group AIMD loop over observation windows:
///
///  * observe — every slot decision reports its decision latency (slot
///    opened -> decided, in host ticks) and the reorder-buffer backlog at
///    the moment the decision parked. Latencies accumulate into a
///    log-bucketed histogram (common/histogram.hpp).
///  * evaluate — once a window has lasted `window` ticks AND collected at
///    least `min_samples` decisions, it is scored: a *breach* is window
///    p99 decision latency above `latency_target`, or backlog high-water
///    above the backlog target (the `max_reorder_backlog` clamp when one
///    is configured — the controller backs off *before* the engine
///    hard-stalls on the clamp).
///  * step — additive growth while healthy (depth + 1, batch + step, up
///    to the configured maxima), multiplicative backoff on breach (both
///    halved, down to the minima). The sawtooth converges on the deepest
///    window the latency target admits.
///
/// Why this closes the right loop: on an uncontended host, decision
/// latency is depth-independent (consensus steps overlap perfectly), so
/// the controller grows to max_depth and stays — all latency headroom
/// spent. Under contention — CPU-bound delivery threads, deep windows
/// flooding the transport, a stalled slot parking decisions — decision
/// p99 and backlog rise with depth, and the controller trades pipeline
/// depth back for tail latency. See docs/ADAPTIVE.md.
///
/// Determinism: the controller has no clock and no timers of its own —
/// every observation carries the host's `now`, so on SimHost the whole
/// trajectory is a pure function of the schedule. Single-writer (the
/// engine's host thread); the effective knobs and counters are relaxed
/// atomics so benchmarks and cross-thread stats readers can sample them
/// live.

namespace fastbft::engine {

struct AdaptiveOptions {
  /// Master switch; off preserves the static-knob behaviour exactly.
  bool enabled = false;

  /// Window p99 decision-latency budget in host ticks (simulator ticks /
  /// microseconds on the wall-clock host). Required when enabled.
  Duration latency_target = 0;

  /// Effective pipeline depth bounds. The engine never runs outside
  /// [min_depth, max_depth], no matter what the observations say.
  /// max_depth sets SlotMux::max_window_depth(), which every replica of a
  /// group must share (SlotMuxOptions::rotate_leaders).
  std::uint32_t min_depth = 1;
  std::uint32_t max_depth = 8;

  /// Effective batch floor (the ceiling is SlotMuxOptions::max_batch).
  std::uint32_t min_batch = 1;

  /// Observation window length in host ticks (0 = 4 * latency_target).
  Duration window = 0;

  /// A window is only scored after this many decisions: one slow slot in
  /// an otherwise idle window is a spike to ride out, not a trend.
  std::uint32_t min_samples = 4;

  /// Backlog high-water that counts as a breach (0 = derive: the engine's
  /// max_reorder_backlog clamp when set, else 2 * max_depth).
  std::size_t backlog_target = 0;

  /// Consecutive breached windows required before a multiplicative
  /// backoff. One breached window HOLDS the knobs (no growth, no
  /// backoff): a lone scheduling hiccup or view-change stall lands its
  /// outliers in a single window, and halving the pipeline for every such
  /// blip makes the controller flap instead of adapt. Real overload
  /// breaches every window and still backs off within breach_windows
  /// windows.
  std::uint32_t breach_windows = 2;

  /// Consecutive healthy windows at the post-backoff ceiling before the
  /// controller probes one step deeper. A backoff halves the depth AND
  /// caps growth at the halved value (TCP ssthresh); without the memory,
  /// plain AIMD re-climbs to the known-bad depth every few windows and
  /// each re-entry risks the very stall it just backed away from.
  /// Probing slowly still re-reaches max_depth when the contention
  /// clears; raise this where a failed probe is expensive (a convoy of
  /// parked decisions) relative to the throughput a deeper window buys.
  std::uint32_t probe_windows = 8;
};

class AdaptiveController {
 public:
  /// `batch_ceiling` is the static max_batch (the adaptive ceiling);
  /// `reorder_clamp` is the engine's max_reorder_backlog (0 = none),
  /// which seeds the default backlog target.
  AdaptiveController(const AdaptiveOptions& options,
                     std::uint32_t batch_ceiling, std::size_t reorder_clamp);

  AdaptiveController(const AdaptiveController&) = delete;
  AdaptiveController& operator=(const AdaptiveController&) = delete;

  // --- Observation (engine host thread only) ---------------------------------

  /// One slot decided: `latency` is open -> decided in host ticks,
  /// `reorder_backlog` the decisions parked for in-order apply right
  /// after this one joined them, `now` the host clock.
  void on_decision(Duration latency, std::size_t reorder_backlog,
                   TimePoint now);

  // --- Effective knobs & counters (any thread) -------------------------------

  std::uint32_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  std::uint32_t batch() const {
    return batch_.load(std::memory_order_relaxed);
  }

  /// Windows that breached and multiplicatively backed off.
  std::uint64_t backoff_events() const {
    return backoffs_.load(std::memory_order_relaxed);
  }

  /// Windows scored so far (growth + backoff).
  std::uint64_t windows_evaluated() const {
    return windows_.load(std::memory_order_relaxed);
  }

  /// Deepest effective depth the controller ever ran.
  std::uint32_t max_depth_reached() const {
    return max_depth_reached_.load(std::memory_order_relaxed);
  }

  /// Largest reorder backlog ever observed at a decision.
  std::size_t backlog_high_water() const {
    return backlog_high_water_.load(std::memory_order_relaxed);
  }

  // --- Host-thread introspection ---------------------------------------------

  /// Every decision latency ever recorded (host ticks).
  const Histogram& latency_histogram() const { return cumulative_; }

  /// Resolved configuration (defaults filled in).
  const AdaptiveOptions& options() const { return options_; }

 private:
  void evaluate(TimePoint now);

  AdaptiveOptions options_;  // resolved: window/backlog defaults applied
  std::uint32_t batch_ceiling_;
  std::uint32_t batch_step_;

  std::atomic<std::uint32_t> depth_;
  std::atomic<std::uint32_t> batch_;
  std::atomic<std::uint64_t> backoffs_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint32_t> max_depth_reached_;
  std::atomic<std::size_t> backlog_high_water_{0};

  Histogram cumulative_;
  Histogram window_hist_;
  std::size_t window_backlog_hw_ = 0;
  TimePoint window_start_ = -1;  // -1: opens at the first observation
  std::uint32_t consecutive_breaches_ = 0;
  std::uint32_t depth_ceiling_;          // ssthresh: re-capped on backoff
  std::uint32_t healthy_at_ceiling_ = 0;  // probe countdown at the ceiling
};

}  // namespace fastbft::engine
