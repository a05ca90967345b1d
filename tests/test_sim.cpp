#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "engine/host.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace fastbft::sim {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    std::int64_t v = rng.next_in_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.next_in_range(3, 3), 3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependence) {
  Rng parent(1);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(1);
  // Forks advance the parent, so consecutive forks differ.
  EXPECT_NE(child_a.next_u64(), child_b.next_u64());
}

// --- Scheduler ---------------------------------------------------------------

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&] { order.push_back(3); });
  sched.schedule_at(10, [&] { order.push_back(1); });
  sched.schedule_at(20, [&] { order.push_back(2); });
  sched.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, FifoWithinSameTime) {
  // Cancellable timers (schedule_at/schedule_after, SimHost timers) and
  // handle-free events (post_at, SimHost::defer/post) share one
  // (time, insertion sequence) order, including events added from inside
  // a running event at the current time.
  enum Kind { kTimer, kPost, kHostTimer, kHostDefer };
  const std::vector<std::vector<std::pair<TimePoint, Kind>>> inputs = {
      {{10, kTimer}, {10, kTimer}, {10, kTimer}, {10, kTimer}, {10, kTimer}},
      {{10, kPost}, {10, kPost}, {10, kPost}},
      {{10, kTimer}, {10, kPost}, {10, kTimer}, {10, kPost}, {10, kPost}},
      {{10, kPost}, {5, kTimer}, {10, kTimer}, {5, kPost}, {0, kPost},
       {10, kPost}, {0, kTimer}},
      {{0, kHostDefer}, {0, kHostTimer}, {0, kPost}, {0, kHostDefer},
       {0, kTimer}, {7, kHostTimer}, {7, kPost}},
  };
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    SCOPED_TRACE("input " + std::to_string(c));
    Scheduler sched;
    engine::SimHost host(sched);
    std::vector<int> order;
    auto add = [&](TimePoint at, Kind kind, int id) {
      auto fn = [&order, id] { order.push_back(id); };
      switch (kind) {
        case kTimer: sched.schedule_at(at, fn); break;
        case kPost: sched.post_at(at, fn); break;
        case kHostTimer: host.schedule_after(at - sched.now(), fn); break;
        case kHostDefer: host.defer(fn); break;
      }
    };
    std::vector<std::tuple<TimePoint, int, int>> expected;  // (at, seq, id)
    int seq = 0;
    for (std::size_t i = 0; i < inputs[c].size(); ++i) {
      auto [at, kind] = inputs[c][i];
      add(at, kind, static_cast<int>(i));
      expected.emplace_back(at, seq++, static_cast<int>(i));
    }
    // Two events queued from inside a running event at its own time: they
    // follow everything already queued for that instant.
    TimePoint first = std::get<0>(*std::min_element(expected.begin(),
                                                    expected.end()));
    sched.post_at(first, [&, first] {
      add(first, kTimer, 100);
      add(first, kPost, 101);
    });
    expected.emplace_back(first, seq++, -1);  // the spawner itself
    expected.emplace_back(first, seq++, 100);
    expected.emplace_back(first, seq++, 101);
    sched.run_to_completion();

    std::sort(expected.begin(), expected.end());
    std::vector<int> want;
    for (const auto& [at, s, id] : expected) {
      if (id >= 0) want.push_back(id);
    }
    EXPECT_EQ(order, want);
  }
}

TEST(Scheduler, NestedScheduling) {
  Scheduler sched;
  std::vector<TimePoint> fired;
  sched.schedule_at(10, [&] {
    fired.push_back(sched.now());
    sched.schedule_after(5, [&] { fired.push_back(sched.now()); });
  });
  sched.run_to_completion();
  EXPECT_EQ(fired, (std::vector<TimePoint>{10, 15}));

  // The running event's captures must survive the events it schedules,
  // which reuse its freed storage slot first and then regrow the storage.
  // Its capture fits std::function's inline buffer, so it would live
  // inside that storage if the callback were not moved out before running.
  struct Ctx {
    Scheduler& sched;
    std::vector<std::uint64_t> seen;
  } ctx{sched, {}};
  constexpr std::uint64_t kTag = 0x5eed5eed5eed5eedULL;
  sched.post_at(20, [&ctx, tag = kTag] {
    for (int i = 0; i < 1000; ++i) {
      ctx.sched.post_at(21, [&ctx] { ctx.seen.push_back(1); });
      ctx.sched.schedule_at(21, [] {});
    }
    ctx.seen.push_back(tag);
  });
  sched.run_to_completion();
  ASSERT_EQ(ctx.seen.size(), 1001u);
  EXPECT_EQ(ctx.seen.front(), kTag);
}

TEST(Scheduler, CancelPreventsExecution) {
  // Each case arms one cancellable timer, cancels it before or after it
  // fires, then runs more events; with one event in flight at a time the
  // later events reuse the cancelled one's storage, and only they fire.
  for (bool cancel_after_fire : {false, true}) {
    for (bool reuse_with_timer : {false, true}) {
      SCOPED_TRACE(std::string(cancel_after_fire ? "cancel after fire"
                                                 : "cancel before fire") +
                   (reuse_with_timer ? ", reused by a timer"
                                     : ", reused by a post"));
      Scheduler sched;
      int fired = 0;
      TimerHandle h = sched.schedule_at(10, [&] { ++fired; });
      EXPECT_TRUE(h.active());
      if (cancel_after_fire) {
        sched.run_to_completion();
        EXPECT_EQ(fired, 1);
      }
      h.cancel();
      EXPECT_FALSE(h.active());
      sched.run_to_completion();
      EXPECT_EQ(fired, cancel_after_fire ? 1 : 0);

      int later = 0;
      for (int i = 0; i < 3; ++i) {
        TimePoint at = sched.now() + 5;
        if (reuse_with_timer) {
          sched.schedule_at(at, [&] { ++later; });
        } else {
          sched.post_at(at, [&] { ++later; });
        }
        h.cancel();  // a stale handle must not reach the new occupant
        sched.run_to_completion();
      }
      EXPECT_EQ(later, 3);
      EXPECT_EQ(fired, cancel_after_fire ? 1 : 0);
      EXPECT_EQ(sched.pending_events(), 0u);
    }
  }
}

TEST(Scheduler, RunUntilStopsAtLimit) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(10, [&] { ++count; });
  sched.schedule_at(20, [&] { ++count; });
  sched.schedule_at(30, [&] { ++count; });
  sched.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), 20);
  EXPECT_EQ(sched.pending_events(), 1u);
}

TEST(Scheduler, RunUntilAdvancesTimeWithEmptyQueue) {
  Scheduler sched;
  sched.run_until(500);
  EXPECT_EQ(sched.now(), 500);
}

TEST(Scheduler, StepReturnsFalseWhenDrained) {
  Scheduler sched;
  EXPECT_FALSE(sched.step());
  sched.schedule_at(1, [] {});
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.executed_events(), 1u);
}

}  // namespace
}  // namespace fastbft::sim
