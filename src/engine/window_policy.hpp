#pragma once

#include <algorithm>
#include <ranges>
#include <vector>

#include "common/types.hpp"

/// \file window_policy.hpp
/// The slot-opening rule of the pipelined engine (SlotMux), as pure
/// functions of one replica's window: they touch no host, timer or
/// transport and allocate nothing, so tests/test_window_policy.cpp checks
/// them case by case and exhaustively over small clusters.
///
/// Within the window, the next slot opens
///  (a) for a command waiting unclaimed, if this replica leads the slot
///      or no open slot still waits for its leader's proposal: the leader
///      proposes in slot order, so that slot already probes it, and the
///      command may ride it;
///  (b) with eager windows, as the one keep-alive slot while none is open:
///      followers open it at once, so their view timer probes the leader,
///      and its leader holds it for half a view timeout (kArmHold; kOpen
///      once the hold timer fired), so a command arriving meanwhile rides
///      it instead of a noop;
///  (c) when its view-1 leader is suspected, so a dead leader's chain
///      changes view in one round instead of one slot per request.
/// An open slot whose current leader is suspected wishes for its next
/// view at once (wishes_early) unless it accepted a proposal in that
/// view: a slot that acked may decide from the acks, and wishing would
/// only push it into another view. Suspicion itself is LeaderTracker's.

namespace fastbft::engine {

/// An open slot as the rule sees it.
struct OpenSlot {
  ProcessId leader = 0;  ///< leader of the slot's current view
  bool voted = false;    ///< accepted a proposal in its current view
};

/// One replica's window just before it decides on slot `next`.
struct WindowState {
  ProcessId self = 0;
  Slot next = 1;  ///< lowest slot not opened yet
  Slot end = 1;   ///< first slot past the window (next to apply + D)
  ProcessId leader = 0;          ///< view-1 leader of `next`
  bool command_waiting = false;  ///< a command waits unclaimed
  bool eager = false;            ///< SlotMuxOptions::eager_windows
  Slot hold_armed = 0;     ///< slot whose hold timer was armed (0: none)
  Slot hold_released = 0;  ///< slot whose hold timer fired (0: none)
};

enum class WindowStep {
  kOpen,     ///< open `next`, then ask again
  kArmHold,  ///< arm the hold timer for `next`, then stop
  kStop,
};

/// Whether `slot` wishes for its next view now.
inline bool wishes_early(const OpenSlot& slot,
                         const std::vector<bool>& suspected) {
  return suspected[slot.leader] && !slot.voted;
}

/// What the window does with slot `w.next`. `open` is a range of OpenSlot,
/// one per open slot; it is read only while a command waits for a
/// follower's slot, and only until an unanswered slot of the same leader
/// turns up.
template <std::ranges::forward_range OpenSlots>
WindowStep next_step(const WindowState& w, const std::vector<bool>& suspected,
                     const OpenSlots& open) {
  if (w.next >= w.end) return WindowStep::kStop;
  if (suspected[w.leader]) return WindowStep::kOpen;
  if (w.command_waiting &&
      (w.leader == w.self ||
       std::ranges::none_of(open, [&](const OpenSlot& slot) {
         return slot.leader == w.leader && !slot.voted;
       }))) {
    return WindowStep::kOpen;
  }
  if (!w.eager || !std::ranges::empty(open)) return WindowStep::kStop;
  if (w.leader != w.self || w.hold_released == w.next) {
    return WindowStep::kOpen;
  }
  return w.hold_armed == w.next ? WindowStep::kStop : WindowStep::kArmHold;
}

}  // namespace fastbft::engine
