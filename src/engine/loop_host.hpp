#pragma once

#include <algorithm>
#include <memory>

#include "engine/host.hpp"
#include "net/event_loop.hpp"

/// \file loop_host.hpp
/// Wall-clock engine host: adapts one net::EventLoop — its µs clock,
/// timer map and task queue — to the engine::Host seam. One host per
/// process, whichever wire backend the loop runs (in-memory
/// net::ThreadedNetwork or TCP net::SocketNetwork). Timer callbacks and
/// message handlers both run on the loop's single thread, so the engine
/// keeps its lock-free single-threaded discipline on real concurrency.
/// The sim::TimerHandle same-thread contract is asserted by the loop at
/// arm/cancel time.

namespace fastbft::engine {

class LoopHost final : public Host {
 public:
  explicit LoopHost(net::EventLoop& loop) : loop_(loop) {}

  LoopHost(const LoopHost&) = delete;
  LoopHost& operator=(const LoopHost&) = delete;
  ~LoopHost() override { *alive_ = false; }

  TimePoint now() const override { return net::EventLoop::now(); }

  sim::TimerHandle schedule_after(Duration delay,
                                  std::function<void()> fn) override {
    auto cancelled = std::make_shared<bool>(false);
    TimePoint at = net::EventLoop::now() + std::max<Duration>(delay, 0);
    // The flag guard makes correctness independent of the eager erase; the
    // erase (below) is what keeps cancelled timers from pinning the
    // loop's timer map until their deadline.
    auto key = loop_.arm_timer(at, [cancelled, fn = std::move(fn)] {
      if (!*cancelled) fn();
    });
    return make_handle(cancelled, [&loop = loop_, key, alive = alive_] {
      if (*alive) loop.cancel_timer(key);
    });
  }

  void post(std::function<void()> fn) override { loop_.post(std::move(fn)); }

  bool affinity_ok() const override { return loop_.affinity_ok(); }

 private:
  net::EventLoop& loop_;
  /// Handles may outlive the host during cluster teardown; the flag keeps
  /// their eager-cancel hook from touching a dead loop reference.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace fastbft::engine
