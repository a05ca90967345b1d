#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>

#include "common/assert.hpp"

namespace fastbft::net {

namespace {

/// Set once epoll_pwait2 turns out to be unavailable (kernels before
/// 5.11, or a seccomp filter that predates it): waits fall back to
/// epoll_wait, rounding timeouts up to whole milliseconds.
std::atomic<bool> g_no_pwait2{false};

int wait_events(int epoll_fd, epoll_event* events, int max_events,
                TimePoint timeout_us) {
  if (!g_no_pwait2.load(std::memory_order_relaxed)) {
    timespec ts{};
    timespec* timeout = nullptr;
    if (timeout_us < kTimeInfinity) {
      ts.tv_sec = static_cast<std::time_t>(timeout_us / 1'000'000);
      ts.tv_nsec = static_cast<long>(timeout_us % 1'000'000) * 1000;
      timeout = &ts;
    }
    const int nev =
        ::epoll_pwait2(epoll_fd, events, max_events, timeout, nullptr);
    if (nev >= 0 || (errno != ENOSYS && errno != EPERM)) return nev;
    g_no_pwait2.store(true, std::memory_order_relaxed);
  }
  const int timeout_ms =
      timeout_us >= kTimeInfinity
          ? -1
          : static_cast<int>(std::min<TimePoint>((timeout_us + 999) / 1000,
                                                 100'000));
  return ::epoll_wait(epoll_fd, events, max_events, timeout_ms);
}

}  // namespace

EventLoop::EventLoop(Backend& backend) : backend_(backend) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  FASTBFT_ASSERT(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  FASTBFT_ASSERT(wake_fd_ >= 0, "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

TimePoint EventLoop::now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

void EventLoop::start() {
  FASTBFT_ASSERT(!thread_.joinable() && !stopping_.load(),
                 "an event loop starts once");
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (thread_.joinable()) {
    stopping_.store(true);
    wake();
    thread_.join();
  }
  // The thread is gone: ownership returns to whoever tears down, and a
  // recycled thread id must not pass for the loop thread.
  owner_.store(std::thread::id{}, std::memory_order_release);
  guard_.unbind();
  timers_.clear();
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    tasks_.push_back(std::move(fn));
    has_tasks_.store(true);
  }
  notify();
}

void EventLoop::notify() {
  // Pairs with wait(): the loop publishes parked_ before its last look
  // for work, a producer publishes work before this exchange — so either
  // the loop sees the work or the producer sees the loop parked.
  if (parked_.exchange(false)) wake();
}

void EventLoop::wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_posted() {
  if (!has_tasks_.load(std::memory_order_acquire)) return;
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    batch.swap(tasks_);
    has_tasks_.store(false, std::memory_order_relaxed);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::run_due() {
  run_posted();
  if (!timers_.empty()) fire_due_timers(now());
}

EventLoop::TimerKey EventLoop::arm_timer(TimePoint at,
                                         std::function<void()> fn) {
  guard_.check(
      "timers are same-thread only: arm/cancel on the owning loop thread");
  TimerKey key{at, next_timer_seq_++};
  timers_.emplace(key, std::move(fn));
  return key;
}

void EventLoop::cancel_timer(TimerKey key) {
  guard_.check(
      "timers are same-thread only: arm/cancel on the owning loop thread");
  timers_.erase(key);
}

void EventLoop::clear_timers() {
  guard_.check("timers are same-thread only: clear on the owning loop thread");
  timers_.clear();
}

void EventLoop::run() {
  owner_.store(std::this_thread::get_id(), std::memory_order_release);
  guard_.bind();
  while (!stopping_.load(std::memory_order_acquire)) {
    run_due();
    backend_.service(now());
    wait();
  }
}

void EventLoop::fire_due_timers(TimePoint now) {
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto node = timers_.extract(timers_.begin());
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    node.mapped()();
    run_posted();
  }
}

void EventLoop::wait() {
  parked_.store(true);
  const TimePoint at = now();
  TimePoint deadline = backend_.next_deadline(at);
  if (!timers_.empty()) {
    deadline = std::min(deadline, timers_.begin()->first.first);
  }
  if (has_tasks_.load() || stopping_.load()) deadline = at;

  epoll_event events[64];
  const int nev = wait_events(
      epoll_fd_, events, 64,
      deadline >= kTimeInfinity ? kTimeInfinity
                                : std::max<TimePoint>(deadline - at, 0));
  parked_.store(false);
  for (int i = 0; i < nev; ++i) {
    if (events[i].data.u64 == kWakeTag) {
      std::uint64_t count;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
    } else {
      backend_.on_io(events[i].data.u64, events[i].events);
    }
  }
}

}  // namespace fastbft::net
