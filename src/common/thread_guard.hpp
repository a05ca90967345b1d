#pragma once

#include "common/assert.hpp"

#if FASTBFT_ENFORCE_INVARIANTS
#include <atomic>
#include <thread>
#endif

/// \file thread_guard.hpp
/// Mechanically enforced thread-affinity contracts (docs/ANALYSIS.md).
///
/// Large parts of this codebase rely on a single-threaded-replica
/// discipline: every protocol object, timer queue and stats writer is
/// touched by exactly one thread (the simulator's main thread or a
/// net::EventLoop thread under either wall-clock transport). Until
/// PR 10 that discipline was documented and spot-asserted; ThreadGuard
/// turns it into a checked contract wherever a struct embeds one.
///
/// Semantics (enabled builds):
///  * bind()            — the calling thread becomes the owner.
///  * unbind()          — clears ownership (teardown / ownership handoff).
///  * check(what)       — asserts the guard is unbound OR held by the
///                        calling thread. "Unbound" passes so setup-phase
///                        calls (before the owning thread exists) stay
///                        legal, mirroring the pre-start()/post-stop()
///                        carve-out the timer contracts always had.
///  * check_or_bind(what) — like check(), but a first use claims
///                        ownership: for objects whose owning thread is
///                        "whichever loop thread first runs me" (SlotMux
///                        stats, TimerWheel firing).
///  * held()/bound()    — queries for callers that branch on ownership.
///
/// Disabled builds (FASTBFT_ENFORCE_INVARIANTS == 0, i.e. Release):
/// ThreadGuard is an empty type and every member is a constexpr no-op —
/// provably zero state and zero code (tests/test_guard.cpp pins
/// std::is_empty and the [[no_unique_address]] layout). Embed guards with
/// FASTBFT_GUARD_MEMBER so the empty-base-like optimization applies.

namespace fastbft::common {

#if FASTBFT_ENFORCE_INVARIANTS

class ThreadGuard {
 public:
  void bind() {
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  void unbind() {
    owner_.store(std::thread::id{}, std::memory_order_release);
  }

  bool bound() const {
    return owner_.load(std::memory_order_acquire) != std::thread::id{};
  }

  /// True iff the calling thread currently owns the guard.
  bool held() const {
    return owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  void check(const char* what) const {
    const std::thread::id owner = owner_.load(std::memory_order_acquire);
    FASTBFT_ASSERT(
        owner == std::thread::id{} || owner == std::this_thread::get_id(),
        what);
  }

  void check_or_bind(const char* what) {
    const std::thread::id owner = owner_.load(std::memory_order_acquire);
    if (owner == std::thread::id{}) {
      bind();
      return;
    }
    FASTBFT_ASSERT(owner == std::this_thread::get_id(), what);
  }

 private:
  /// Atomic only so the check itself is race-free; the guard adds no
  /// ordering beyond its own loads/stores.
  std::atomic<std::thread::id> owner_{};
};

#else  // !FASTBFT_ENFORCE_INVARIANTS

/// Release stub: empty, trivially copyable, every call a constexpr no-op.
class ThreadGuard {
 public:
  constexpr void bind() {}
  constexpr void unbind() {}
  constexpr bool bound() const { return false; }
  constexpr bool held() const { return false; }
  constexpr void check(const char*) const {}
  constexpr void check_or_bind(const char*) {}
};

static_assert(sizeof(ThreadGuard) == 1, "release ThreadGuard carries state");

#endif  // FASTBFT_ENFORCE_INVARIANTS

}  // namespace fastbft::common

/// Declares a ThreadGuard member that occupies no storage when the release
/// stub is in effect (an empty member still costs a byte without this).
#define FASTBFT_GUARD_MEMBER(name) \
  [[no_unique_address]] ::fastbft::common::ThreadGuard name
