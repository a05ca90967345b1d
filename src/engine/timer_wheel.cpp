#include "engine/timer_wheel.hpp"

#include <algorithm>

namespace fastbft::engine {

namespace {
/// Heap order: the earliest (deadline, seq) on top.
template <typename EntryPtr>
bool later(const EntryPtr& a, const EntryPtr& b) {
  return a->deadline != b->deadline ? a->deadline > b->deadline
                                    : a->seq > b->seq;
}
}  // namespace

TimerWheel::~TimerWheel() {
  *alive_ = false;
  host_event_.cancel();
  // Handles may outlive the wheel; their cancel must not reach it.
  for (auto& entry : heap_) entry->wheel = nullptr;
}

sim::TimerHandle TimerWheel::schedule_after(Duration delay,
                                            std::function<void()> fn) {
  FASTBFT_DASSERT(host_.affinity_ok(),
                  "TimerWheel::schedule_after off the host thread");
  auto entry = std::make_shared<Entry>();
  entry->deadline = host_.now() + delay;
  entry->seq = next_seq_++;
  entry->wheel = this;
  entry->fn = std::move(fn);
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), later<EntryPtr>);
  ++live_;
  if (!firing_) arm();
  // The handle's flag lives inside the entry (an aliasing pointer), and
  // the cancel hook captures only the entry's address — the flag keeps
  // the entry alive for as long as the handle exists.
  Entry* raw = entry.get();
  return make_handle(std::shared_ptr<bool>(entry, &entry->cancelled), [raw] {
    if (raw->wheel != nullptr) raw->wheel->drop(*raw);
  });
}

void TimerWheel::drop(Entry& entry) {
  FASTBFT_DASSERT(host_.affinity_ok(),
                  "TimerHandle cancelled off the host thread");
  entry.wheel = nullptr;
  entry.fn = nullptr;
  --live_;
  ++cancelled_dropped_;
}

TimerWheel::EntryPtr TimerWheel::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later<EntryPtr>);
  EntryPtr top = std::move(heap_.back());
  heap_.pop_back();
  return top;
}

void TimerWheel::arm() {
  while (!heap_.empty() && heap_.front()->wheel == nullptr) pop();
  if (heap_.empty()) {
    host_event_.cancel();
    armed_at_ = kTimeInfinity;
    return;
  }
  TimePoint next = heap_.front()->deadline;
  if (host_event_.active() && armed_at_ <= next) return;
  host_event_.cancel();
  armed_at_ = next;
  Duration delay = std::max<Duration>(0, next - host_.now());
  host_event_ = host_.schedule_after(delay, [this, alive = alive_] {
    if (*alive) fire();
  });
}

void TimerWheel::fire() {
  firing_ = true;
  TimePoint now = host_.now();
  while (!heap_.empty() && heap_.front()->deadline <= now) {
    EntryPtr entry = pop();
    if (entry->wheel == nullptr) continue;  // cancelled
    entry->wheel = nullptr;
    --live_;
    auto fn = std::move(entry->fn);
    fn();
  }
  firing_ = false;
  armed_at_ = kTimeInfinity;
  arm();
}

}  // namespace fastbft::engine
