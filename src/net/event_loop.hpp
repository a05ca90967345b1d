#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/thread_guard.hpp"
#include "common/types.hpp"

/// \file event_loop.hpp
/// The one event-loop primitive under both wall-clock transports. An
/// EventLoop is one OS thread that owns everything a single-threaded
/// process needs besides its wire: a wait on one epoll set (woken by an
/// eventfd), a µs-deadline timer map, a cross-thread task queue and the
/// thread-affinity contract that protects them. The wire itself is a
/// Backend plugged in at construction:
///  * net::ThreadedNetwork — an in-memory envelope queue per process;
///  * net::SocketNetwork — TCP links, accept and framing on the epoll set.
/// engine::LoopHost adapts one EventLoop to the engine::Host seam, so the
/// SMR engine runs over either backend unchanged.
///
/// One round of the loop: run posted tasks; fire due timers; let the
/// backend do its due work (deliveries, link upkeep, write flushes); park
/// in epoll_pwait2 until the earliest deadline or a wakeup; hand ready fds
/// to the backend. The wait has microsecond precision — pipelined slots
/// paced by a 200 µs emulated link would lose most of their overlap to a
/// millisecond-rounded timeout.
///
/// Contracts:
///  * FIFO: tasks run in post order, and a task posted by a handler — or
///    a timer it armed that is already due, such as an engine defer() —
///    runs before the next message is handled. Backends keep the second
///    half by calling run_due() after every delivery.
///  * Same-thread timers: arm_timer/cancel_timer/clear_timers run on the
///    loop thread, or on any thread before start() / after stop()
///    (checked by a common::ThreadGuard in invariant builds).
///  * Only a parked loop is woken: post() and notify() write the eventfd
///    only when the loop is (about to be) blocked in epoll, so a busy
///    loop pays no syscall per message.

namespace fastbft::net {

class EventLoop {
 public:
  using TimerKey = std::pair<TimePoint, std::uint64_t>;

  /// epoll_event.data.u64 value of the loop's own eventfd; backends tag
  /// their fds with any other value.
  static constexpr std::uint64_t kWakeTag = 0;

  /// The wire behind a loop. Every call comes from the loop thread.
  class Backend {
   public:
    /// Does the work due at `now`: delivers due messages (calling
    /// EventLoop::run_due() after each), services links, flushes.
    virtual void service(TimePoint now) = 0;

    /// Earliest tick at which service() has work again (kTimeInfinity for
    /// none). Asked after the loop announced it is parking, so work a
    /// producer enqueues concurrently is either seen here or followed by
    /// a notify() that wakes the wait.
    virtual TimePoint next_deadline(TimePoint now) = 0;

    /// An fd the backend registered on epoll_fd() became ready.
    virtual void on_io(std::uint64_t /*tag*/, std::uint32_t /*events*/) {}

   protected:
    ~Backend() = default;
  };

  /// Creates the epoll set and eventfd; the thread starts in start().
  explicit EventLoop(Backend& backend);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Microseconds of a steady clock since a process-wide epoch: the tick
  /// unit of every timer deadline and of engine::LoopHost clocks. One
  /// epoch for all loops, so ticks compare across threads.
  static TimePoint now();

  /// Spawns the loop thread.
  void start();

  /// Stops and joins the loop thread; ownership of loop state returns to
  /// the caller and pending timers are dropped. Idempotent.
  void stop();

  /// Runs `fn` on the loop thread, after every task posted before it.
  /// Thread-safe; legal before start() (runs once the loop starts).
  void post(std::function<void()> fn);

  /// Wakes the loop if it is parked: what a producer calls after handing
  /// the backend new work from another thread.
  void notify();

  /// Runs every task posted so far, then every timer already due. Loop
  /// thread only.
  void run_due();

  /// Arms `fn` to fire at `at` (now() ticks) on the loop thread. Returns
  /// the key cancel_timer needs. Same-thread contract (asserted).
  TimerKey arm_timer(TimePoint at, std::function<void()> fn);

  /// Drops a timer armed with arm_timer; no-op if it fired or was
  /// cancelled already. Same-thread contract.
  void cancel_timer(TimerKey key);

  /// Drops every pending timer (a crashed process goes silent).
  /// Same-thread contract.
  void clear_timers();

  /// True on the loop thread itself. Functional in every build type:
  /// backends branch on it to act inline instead of posting.
  bool on_loop_thread() const {
    return owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// True when the calling thread may act as this loop's thread under the
  /// same-thread contract: the loop thread, or any thread while none is
  /// live. Permissive when invariant checking is compiled out.
  bool affinity_ok() const { return !guard_.bound() || guard_.held(); }

  /// The epoll set backends add their fds to.
  int epoll_fd() const { return epoll_fd_; }

  std::uint64_t timers_fired() const {
    return timers_fired_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void run_posted();
  void fire_due_timers(TimePoint now);
  void wait();
  void wake();

  Backend& backend_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};

  /// True while the loop is about to block or blocked in epoll; producers
  /// clear it and write the eventfd only when it was set.
  std::atomic<bool> parked_{false};

  std::mutex task_mutex_;
  std::deque<std::function<void()>> tasks_;
  /// True whenever `tasks_` may be non-empty: run_due() follows every
  /// delivery, so the empty case must cost one load, not a mutex.
  std::atomic<bool> has_tasks_{false};

  std::map<TimerKey, std::function<void()>> timers_;
  std::uint64_t next_timer_seq_ = 0;
  std::atomic<std::uint64_t> timers_fired_{0};

  std::atomic<std::thread::id> owner_{};
  /// Affinity contract (invariant builds only): bound by the loop thread
  /// as it starts, unbound by stop() after the join.
  FASTBFT_GUARD_MEMBER(guard_);
  std::thread thread_;  // last: joined before anything it uses goes away
};

}  // namespace fastbft::net
