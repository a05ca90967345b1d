#include "sim/scheduler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace fastbft::sim {

TimerHandle Scheduler::schedule_at(TimePoint at, std::function<void()> fn) {
  std::shared_ptr<bool> flag;
  if (spare_flags_.empty()) {
    flag = std::make_shared<bool>(false);
  } else {
    flag = std::move(spare_flags_.back());
    spare_flags_.pop_back();
    *flag = false;
  }
  push(at, std::move(fn), flag);
  return TimerHandle(std::move(flag));
}

TimerHandle Scheduler::schedule_after(Duration delay, std::function<void()> fn) {
  FASTBFT_ASSERT(delay >= 0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::post_at(TimePoint at, std::function<void()> fn) {
  push(at, std::move(fn), nullptr);
}

void Scheduler::push(TimePoint at, std::function<void()> fn,
                     std::shared_ptr<bool> cancelled) {
  FASTBFT_ASSERT(at >= now_, "scheduling into the past");
  std::uint32_t body;
  if (free_.empty()) {
    body = static_cast<std::uint32_t>(bodies_.size());
    FASTBFT_ASSERT(body < (1u << kBodyBits), "too many pending events");
    bodies_.push_back(Body{std::move(fn), std::move(cancelled)});
  } else {
    body = free_.back();
    free_.pop_back();
    bodies_[body] = Body{std::move(fn), std::move(cancelled)};
  }
  FASTBFT_ASSERT(next_seq_ < (std::uint64_t{1} << (64 - kBodyBits)),
                 "event sequence space exhausted");
  Key key{at, (next_seq_++ << kBodyBits) | body};
  std::size_t i = queue_.size();
  queue_.push_back(key);
  while (i > 0 && earlier(key, queue_[(i - 1) / 4])) {
    queue_[i] = queue_[(i - 1) / 4];
    i = (i - 1) / 4;
  }
  queue_[i] = key;
}

Scheduler::Body Scheduler::pop() {
  std::uint32_t body = queue_.front().body();
  Key last = queue_.back();
  queue_.pop_back();
  if (!queue_.empty()) {
    // Sift the last key down from the root into the hole.
    std::size_t i = 0;
    const std::size_t n = queue_.size();
    for (std::size_t first = 1; first < n; first = 4 * i + 1) {
      std::size_t best = first;
      for (std::size_t c = first + 1; c < std::min(first + 4, n); ++c) {
        if (earlier(queue_[c], queue_[best])) best = c;
      }
      if (!earlier(queue_[best], last)) break;
      queue_[i] = queue_[best];
      i = best;
    }
    queue_[i] = last;
  }
  Body& slot = bodies_[body];
  Body popped = std::move(slot);
  slot.fn = nullptr;  // a moved-from std::function is unspecified
  free_.push_back(body);
  return popped;
}

void Scheduler::recycle(std::shared_ptr<bool> flag) {
  // Only the scheduler holds it: no handle can observe the reset.
  if (flag && flag.use_count() == 1) spare_flags_.push_back(std::move(flag));
}

bool Scheduler::step() {
  while (!queue_.empty()) {
    if (cancelled(queue_.front())) {
      recycle(pop().cancelled);
      continue;
    }
    now_ = queue_.front().at;
    // Moved out before running: the callback may schedule, which can
    // reuse this slot or grow the slab under it.
    Body event = pop();
    Log::now_hint = now_;
    ++executed_;
    event.fn();
    // After the callback: a timer it re-armed dropped its handle on this
    // event's flag by now.
    recycle(std::move(event.cancelled));
    return true;
  }
  return false;
}

void Scheduler::run_until(TimePoint limit) {
  while (!queue_.empty()) {
    if (cancelled(queue_.front())) {
      recycle(pop().cancelled);
      continue;
    }
    if (queue_.front().at > limit) break;
    step();
  }
  if (now_ < limit) {
    now_ = limit;
    Log::now_hint = now_;
  }
}

void Scheduler::run_to_completion(std::uint64_t max_events) {
  std::uint64_t steps = 0;
  while (step()) {
    FASTBFT_ASSERT(++steps <= max_events,
                   "scheduler exceeded event budget — likely a livelock");
  }
}

}  // namespace fastbft::sim
