#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/codec.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "sim/scheduler.hpp"

/// \file synchronizer.hpp
/// View synchronization protocol. The paper delegates this to the
/// literature ([8, 11, 24]) and requires three properties:
///   1. a correct process's view number never decreases;
///   2. in every infinite execution a correct leader is elected infinitely
///      often;
///   3. if a correct leader is elected after GST, no correct process
///      changes its view for at least 5 * Delta.
///
/// This implementation is a timeout-based WISH synchronizer with Bracha
/// amplification: a process whose timer expires broadcasts WISH(v+1);
/// seeing f+1 distinct processes wishing for views >= w makes it adopt and
/// relay WISH(w) (so lagging processes catch up within one delay); seeing
/// 2f+1 makes it enter view w. Timeouts grow exponentially with the view
/// number, so after GST they eventually exceed the time a correct leader
/// needs (4 message delays for view change + proposal), giving property 3.

namespace fastbft::viewsync {

struct WishMsg {
  View w = kNoView;

  Bytes serialize() const;
  static std::optional<WishMsg> decode(Decoder& dec);
};

/// Returns nullopt if the payload is not a WISH message.
std::optional<WishMsg> parse_wish(ByteView payload);

struct SynchronizerConfig {
  /// Baseline view duration; doubled each view up to `max_doublings`.
  /// Must comfortably exceed ~6 message delays for liveness after GST.
  Duration base_timeout = 1200;
  std::uint32_t max_doublings = 20;
  std::uint32_t f = 1;
};

class Synchronizer {
 public:
  using EnterViewFn = std::function<void(View)>;

  /// `timers` is any timer source: the scheduler itself for standalone
  /// nodes, or an engine-scoped multiplexer (engine::TimerWheel) when many
  /// synchronizers share one scheduler event (pipelined SMR slots).
  Synchronizer(SynchronizerConfig cfg, ProcessId id,
               net::Transport& transport, sim::TimerService& timers,
               EnterViewFn enter_view);

  /// Arms the view-1 timer.
  void start();

  /// Feeds a WISH payload (the node dispatches by tag; viewed, not copied).
  void on_message(ProcessId from, ByteView payload);

  /// The current leader is suspected (the SMR engine saw it replaced in
  /// another instance and heard nothing from it since): wishes for the
  /// next view now instead of when the timer expires, and restarts the
  /// view timer so it does not escalate past that view while the wish
  /// gathers its quorum. A wish still needs 2f + 1 wishers to change the
  /// view. Returns false, doing nothing, once stopped or if this process
  /// already wished past the current view. This bends property 3 for a
  /// leader that is suspected yet correct (docs/ARCHITECTURE.md, "Leader
  /// suspicion").
  bool suspect();

  /// Stops advancing views (called once the replica decided; for
  /// single-shot consensus there is nothing left to synchronize).
  void stop();

  View view() const { return view_; }
  std::uint64_t timeouts_fired() const { return timeouts_fired_; }

 private:
  void arm_timer();
  void on_timeout();
  void send_wish(View w);
  void process_wishes();
  Duration timeout_for(View v) const;

  /// k-th highest wish over all processes (1-based); kNoView if fewer than
  /// k processes have wished.
  View kth_highest_wish(std::uint32_t k) const;

  SynchronizerConfig cfg_;
  ProcessId id_;
  net::Transport& transport_;
  sim::TimerService& timers_;
  EnterViewFn enter_view_;

  View view_ = 1;
  std::map<ProcessId, View> wish_of_;  // highest wish seen per process
  View my_wish_ = kNoView;
  bool stopped_ = false;
  sim::TimerHandle timer_;
  std::uint64_t timeouts_fired_ = 0;
};

}  // namespace fastbft::viewsync
