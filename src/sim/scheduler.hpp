#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"

/// \file scheduler.hpp
/// Deterministic discrete-event scheduler: the heart of the simulation
/// substrate. Events fire in (time, insertion-sequence) order, so two runs
/// with identical inputs replay identically. All protocol latencies reported
/// by the benchmarks are differences of `now()` values.

namespace fastbft::sim {

/// Cancellation handle for a scheduled event. Destroying the handle does
/// NOT cancel the event; call `cancel()` explicitly.
///
/// Same-thread contract: a handle carries no synchronization. It must only
/// be used (cancel() / active()) on the thread that owns the TimerService
/// that minted it — the simulator thread for sim runs, the process's
/// event-loop thread for wall-clock hosts. Cross-thread cancellation is a
/// data race by construction; hosts assert the contract at their service
/// boundary (see net::EventLoop::arm_timer).
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel() {
    if (cancelled_ && !*cancelled_) {
      *cancelled_ = true;
      // Eager-drop hook: lets the minting service free the timer's slot
      // immediately instead of waiting for the dead entry to reach its
      // deadline (engine::TimerWheel, threaded inbox timer queues).
      if (on_cancel_) on_cancel_();
    }
    on_cancel_ = nullptr;
  }
  bool active() const { return cancelled_ && !*cancelled_; }

 private:
  friend class Scheduler;
  friend class TimerService;
  explicit TimerHandle(std::shared_ptr<bool> flag,
                       std::function<void()> on_cancel = nullptr)
      : cancelled_(std::move(flag)), on_cancel_(std::move(on_cancel)) {}
  std::shared_ptr<bool> cancelled_;
  std::function<void()> on_cancel_;
};

/// Anything that can arm one-shot timers. The scheduler itself is the
/// canonical implementation (one scheduler event per timer); the engine
/// layer provides a multiplexing implementation (engine::TimerWheel) that
/// funds many logical timers from a single outstanding scheduler event, so
/// per-slot protocol objects never own scheduler state directly.
class TimerService {
 public:
  virtual ~TimerService() = default;

  /// Arms `fn` to fire after `delay` ticks. The returned handle cancels.
  virtual TimerHandle schedule_after(Duration delay,
                                     std::function<void()> fn) = 0;

 protected:
  /// Lets implementations mint handles around their own cancellation flags.
  /// `on_cancel` (optional) runs on the first cancel() — on the service's
  /// owning thread, per the TimerHandle contract — so the service can drop
  /// the dead entry eagerly. It must tolerate the entry already having
  /// fired, and must not touch the service after its destruction (guard
  /// with a shared liveness flag).
  static TimerHandle make_handle(std::shared_ptr<bool> flag,
                                 std::function<void()> on_cancel = nullptr) {
    return TimerHandle(std::move(flag), std::move(on_cancel));
  }
};

class Scheduler final : public TimerService {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now).
  TimerHandle schedule_at(TimePoint at, std::function<void()> fn);

  /// Schedules `fn` after `delay` ticks.
  TimerHandle schedule_after(Duration delay, std::function<void()> fn) override;

  /// Fire-and-forget form of schedule_at: no handle, so no cancellation
  /// flag is allocated. Shares the (time, sequence) order with timers.
  void post_at(TimePoint at, std::function<void()> fn);

  /// Runs the earliest pending event. Returns false if none are pending.
  bool step();

  /// Runs events until the queue drains or `limit` is passed; time stops at
  /// the last executed event (or `limit` if it was reached).
  void run_until(TimePoint limit);

  /// Runs until the queue is fully drained. Guarded by a large step budget
  /// to turn accidental infinite loops into loud failures.
  void run_to_completion(std::uint64_t max_events = 50'000'000);

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  /// Heap entries are 16-byte keys; the callbacks live in a recycled slab
  /// (`bodies_`, free slots in `free_`), so reordering the heap never moves
  /// a std::function and a steady-state event allocates nothing. `order`
  /// packs the insertion sequence over the body's slab index: sequences
  /// are unique, so comparing `order` compares sequences.
  static constexpr int kBodyBits = 24;
  struct Key {
    TimePoint at;
    std::uint64_t order;
    std::uint32_t body() const {
      return static_cast<std::uint32_t>(order & ((1u << kBodyBits) - 1));
    }
  };
  static bool earlier(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  }
  struct Body {
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;  ///< null for post_at events
  };

  void push(TimePoint at, std::function<void()> fn,
            std::shared_ptr<bool> cancelled);
  bool cancelled(const Key& key) const {
    const auto& flag = bodies_[key.body()].cancelled;
    return flag && *flag;
  }
  /// Pops the top key and frees its body slot; returns the body.
  Body pop();
  /// Keeps a spent event's cancellation flag for a later schedule_at once
  /// no handle refers to it, so a timer re-armed over and over (one
  /// engine::TimerWheel host event) allocates no flag in steady state.
  void recycle(std::shared_ptr<bool> flag);

  /// 4-ary min-heap of keys: half the depth of a binary heap, and the four
  /// children of a node span at most two cache lines.
  std::vector<Key> queue_;
  std::vector<Body> bodies_;
  std::vector<std::uint32_t> free_;
  std::vector<std::shared_ptr<bool>> spare_flags_;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace fastbft::sim
