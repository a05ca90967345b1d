#pragma once

#include <string>
#include <vector>

#include "adversary/recording_transport.hpp"

/// \file trace.hpp
/// Message-flow rendering: draws the messages an adversary::EnvelopeLog
/// recorded off a simulated network as a sequence diagram, reproducing
/// the paper's protocol figures (Fig. 1a — fast path, Fig. 1b — view
/// change, Fig. 5 — slow path) from *actual executions* rather than by
/// drawing them. See examples/message_flow.cpp.

namespace fastbft::trace {

struct RenderOptions {
  /// Only render these tags (empty = all).
  std::vector<std::uint8_t> tags;
  /// Hide self-sends (local hand-offs), which the paper's figures omit.
  bool hide_self_sends = true;
  /// Stop rendering after this time (default: everything).
  TimePoint until = kTimeInfinity;
  /// Collapse a broadcast (same sender/tag/time, >= 3 receivers) into one
  /// line with a receiver list.
  bool collapse_broadcasts = true;
};

/// Renders the trace as a time-ordered sequence diagram:
///
///   t=0     p0 -> {p1,p2,p3}      PROPOSE    (delivered t=100)
///   t=100   p1 -> *               ACK        (delivered t=200)
///
/// '*' means all other processes.
std::string render_sequence(const adversary::EnvelopeLog& log,
                            std::uint32_t n, const RenderOptions& options = {});

}  // namespace fastbft::trace
