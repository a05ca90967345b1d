#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "engine/host.hpp"

/// \file timer_wheel.hpp
/// Engine-scoped timer multiplexer. A pipelined SMR engine runs up to
/// `pipeline_depth` view synchronizers concurrently, each of which arms and
/// re-arms timeouts; routing every logical timer through one wheel keeps
/// exactly one event outstanding in the host per engine (the earliest
/// deadline) instead of one per slot, and gives the engine a single place
/// to introspect and tear down all slot-scoped timers.
///
/// Cancellation is eager: cancelling a handle drops its callback (and
/// whatever it captured) at once and the timer stops counting as pending;
/// the small spent entry leaves the heap when it reaches the top. A timer
/// costs one allocation: the entry, which also holds the cancellation flag
/// its handle points into. The wheel inherits the host's same-thread
/// contract — schedule and cancel only on the host thread — and enforces
/// it in invariant builds via Host::affinity_ok(): a cancel bypasses the
/// transport's own arm/cancel asserts, so the wheel re-checks before
/// mutating its entries (docs/ANALYSIS.md).

namespace fastbft::engine {

class TimerWheel final : public sim::TimerService {
 public:
  explicit TimerWheel(Host& host) : host_(host) {}

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;
  ~TimerWheel() override;

  sim::TimerHandle schedule_after(Duration delay,
                                  std::function<void()> fn) override;

  /// Live logical timers currently queued (cancelled entries are dropped
  /// eagerly, so they never count).
  std::size_t pending() const { return live_; }

  /// Timers dropped by a cancel before they fired, so far.
  std::uint64_t cancelled_dropped() const { return cancelled_dropped_; }

 private:
  /// One logical timer. `wheel` is null once the timer fired, was
  /// cancelled, or the wheel is gone; a handle's cancel reaches the wheel
  /// only through it.
  struct Entry {
    TimePoint deadline = 0;
    std::uint64_t seq = 0;  ///< FIFO among equal deadlines
    bool cancelled = false;  ///< the handle's flag
    TimerWheel* wheel = nullptr;
    std::function<void()> fn;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  void drop(Entry& entry);
  /// Removes and returns the earliest entry.
  EntryPtr pop();
  void arm();
  void fire();

  Host& host_;
  /// Min-heap on (deadline, seq), spent entries included until they
  /// surface.
  std::vector<EntryPtr> heap_;
  std::size_t live_ = 0;
  sim::TimerHandle host_event_;
  TimePoint armed_at_ = kTimeInfinity;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_dropped_ = 0;
  bool firing_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace fastbft::engine
