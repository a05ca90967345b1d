#pragma once

#include <functional>

#include "sim/scheduler.hpp"

/// \file host.hpp
/// Execution-context seam between the SMR engine and whatever runs it.
/// A Host is one logical thread of execution with a clock and one-shot
/// timers: the engine (SlotMux, TimerWheel, per-slot synchronizers) talks
/// only to this interface, so the identical engine code runs on the
/// deterministic simulator (SimHost, ticks = scheduler ticks) and on real
/// OS threads over wall-clock time (LoopHost, ticks = microseconds of a
/// steady clock).
///
/// Single-threaded-executor guarantee: every callback a Host runs — timer
/// callbacks, deferred closures, and (by construction of the surrounding
/// runtime) message handlers — executes on the same logical thread, one at
/// a time. Engine code therefore needs no locks, on either host. The
/// flip side is the same-thread contract on sim::TimerHandle: handles
/// minted through a Host must be cancelled on that host's thread only.

namespace fastbft::engine {

class Host : public sim::TimerService {
 public:
  /// Current time in this host's ticks (simulated ticks or microseconds).
  /// Only meaningful relative to other now() values from the same host.
  virtual TimePoint now() const = 0;

  /// Runs `fn` after the currently-executing handler returns, on the host
  /// thread. Used to defer teardown out of a protocol object's own
  /// callback (e.g. destroying a replica from its decide handler).
  virtual void defer(std::function<void()> fn) {
    schedule_after(0, std::move(fn));
  }

  /// Cross-thread submission: runs `fn` on the host thread, interleaved
  /// with its handlers and timers. Unlike defer()/schedule_after (which
  /// inherit the same-thread timer contract), post() MAY be called from
  /// any thread — it is how a driver thread reaches protocol or session
  /// objects living on a delivery thread. On the single-threaded
  /// simulator it degenerates to defer().
  virtual void post(std::function<void()> fn) = 0;

  /// True when the calling thread may legally act as this host's logical
  /// thread right now: the host thread itself, or the setup/teardown
  /// phases when no host thread is live. Engine code checks it (via
  /// FASTBFT_DASSERT, so only in invariant builds) before mutating state
  /// the single-threaded-executor guarantee protects — TimerWheel entries
  /// on schedule/cancel, SlotMux single-writer stats — extending the
  /// transport's arm/cancel affinity asserts to mutations that never
  /// reach the transport. Single-threaded hosts are always ok;
  /// LoopHost delegates to its event loop's common::ThreadGuard, which
  /// reports permissively when invariant checking is compiled out.
  virtual bool affinity_ok() const { return true; }
};

/// Thin adapter over the deterministic simulator: the scheduler already is
/// a single-threaded timer service with a clock.
class SimHost final : public Host {
 public:
  explicit SimHost(sim::Scheduler& sched) : sched_(sched) {}

  TimePoint now() const override { return sched_.now(); }
  sim::TimerHandle schedule_after(Duration delay,
                                  std::function<void()> fn) override {
    return sched_.schedule_after(delay, std::move(fn));
  }
  /// Deferred closures are never cancelled: they take the scheduler's
  /// handle-free entry point, in the same order schedule_after(0) would.
  void defer(std::function<void()> fn) override {
    sched_.post_at(sched_.now(), std::move(fn));
  }
  void post(std::function<void()> fn) override { defer(std::move(fn)); }

 private:
  sim::Scheduler& sched_;
};

}  // namespace fastbft::engine
