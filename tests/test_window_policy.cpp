#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "engine/leader_tracker.hpp"
#include "engine/window_policy.hpp"

/// The pipelined engine's slot-opening rule (engine/window_policy.hpp) and
/// leader schedule (engine/leader_tracker.hpp), tested with no network
/// (the morphling idiom): unit cases call the policy and assert on the
/// step it returns, and a small-scope model enumerates every interleaving
/// of command arrivals, proposals, peer traffic, decisions and hold timers
/// over four replicas running the real policy.

namespace fastbft::engine {
namespace {

// --- WindowPolicy: one call, one step ---------------------------------------

const std::vector<bool> kNoSuspects(4, false);

/// Replica 1 deciding on slot 1, led by p0, with room in its window.
WindowState follower() {
  return {.self = 1, .next = 1, .end = 4, .leader = 0};
}

WindowStep step(const WindowState& w, std::vector<OpenSlot> open = {},
                const std::vector<bool>& suspected = kNoSuspects) {
  return next_step(w, suspected, open);
}

TEST(WindowPolicy, NothingWaitingOpensNothingOnDemand) {
  EXPECT_EQ(step(follower()), WindowStep::kStop);
}

TEST(WindowPolicy, WaitingCommandOpensTheLeadersOwnSlot) {
  WindowState w = follower();
  w.self = 0;
  w.command_waiting = true;
  // Its own unanswered slots do not hold a leader back: it proposes each.
  EXPECT_EQ(step(w, {{0, false}, {0, false}}), WindowStep::kOpen);
}

TEST(WindowPolicy, FollowerWaitsWhileTheLeaderOwesAProposal) {
  WindowState w = follower();
  w.command_waiting = true;
  EXPECT_EQ(step(w), WindowStep::kOpen);
  EXPECT_EQ(step(w, {{0, false}}), WindowStep::kStop)
      << "the command may ride the slot p0 has not proposed yet";
  EXPECT_EQ(step(w, {{0, true}}), WindowStep::kOpen);
  EXPECT_EQ(step(w, {{2, false}}), WindowStep::kOpen)
      << "another leader's unanswered slot says nothing about p0";
}

TEST(WindowPolicy, SuspectedLeaderOpensWithinTheWindowOnly) {
  std::vector<bool> suspected(4, false);
  suspected[0] = true;
  EXPECT_EQ(step(follower(), {{0, false}}, suspected), WindowStep::kOpen);
  WindowState full = follower();
  full.next = full.end;
  full.command_waiting = true;
  EXPECT_EQ(step(full, {}, suspected), WindowStep::kStop);
}

TEST(WindowPolicy, KeepAliveFollowerOpensAtOnceAndLeaderHolds) {
  WindowState w = follower();
  w.eager = true;
  EXPECT_EQ(step(w), WindowStep::kOpen);
  EXPECT_EQ(step(w, {{2, true}}), WindowStep::kStop) << "one keep-alive slot";

  w.self = 0;
  EXPECT_EQ(step(w), WindowStep::kArmHold);
  w.hold_armed = 1;
  EXPECT_EQ(step(w), WindowStep::kStop) << "armed once per slot";
  w.hold_released = 1;
  EXPECT_EQ(step(w), WindowStep::kOpen);
  w.next = 2;
  EXPECT_EQ(step(w), WindowStep::kArmHold) << "a hold belongs to one slot";
}

TEST(WindowPolicy, OnlyAnUnansweredSlotOfASuspectWishesEarly) {
  std::vector<bool> suspected(4, false);
  suspected[3] = true;
  EXPECT_TRUE(wishes_early({3, false}, suspected));
  EXPECT_FALSE(wishes_early({3, true}, suspected))
      << "a slot that acked may still decide from the acks";
  EXPECT_FALSE(wishes_early({2, false}, suspected));
}

// --- LeaderTracker ----------------------------------------------------------

TEST(LeaderTrackerTest, SlotPastDStartsAtTheAuthorOfSlotMinusD) {
  constexpr std::uint32_t kDepth = 3;
  LeaderTracker pinned(4, 0, kDepth, /*rotate=*/false);
  LeaderTracker rotating(4, 0, kDepth, /*rotate=*/true);
  for (Slot s = 1; s <= kDepth; ++s) {
    EXPECT_EQ(pinned.view1_leader(s), 0u);
    EXPECT_EQ(rotating.view1_leader(s), (s - 1) % 4);
  }
  const std::array<ProcessId, kDepth> authors = {2, 3, 1};
  for (Slot s = 1; s <= kDepth; ++s) {
    EXPECT_EQ(pinned.record_author(s, authors[s - 1]), authors[s - 1]);
    rotating.record_author(s, authors[s - 1]);
  }
  for (Slot s = kDepth + 1; s <= 2 * kDepth; ++s) {
    const ProcessId author = authors[s - kDepth - 1];
    EXPECT_EQ(pinned.view1_leader(s), author) << "slot " << s;
    EXPECT_EQ(rotating.view1_leader(s), (author + kDepth) % 4) << "slot " << s;
  }
}

TEST(LeaderTrackerTest, AuthorOutsideTheClusterCountsAsTheSlotsOwnLeader) {
  LeaderTracker tracker(4, 0, /*depth=*/2, /*rotate=*/true);
  EXPECT_EQ(tracker.record_author(1, ProcessId{7}), 0u);  // slot 1 starts at p0
  EXPECT_EQ(tracker.record_author(2, std::nullopt), 1u);  // slot 2 at p1
  EXPECT_EQ(tracker.view1_leader(3), 2u);  // p0 + D
  EXPECT_EQ(tracker.view1_leader(4), 3u);  // p1 + D
}

TEST(LeaderTrackerTest, SnapshotExportRestoreReproducesTheNextDLeaders) {
  constexpr std::uint32_t kDepth = 3;
  constexpr Slot kBoundary = 11;
  LeaderTracker source(4, 0, kDepth, /*rotate=*/true);
  for (Slot s = 1; s < kBoundary; ++s) {
    source.record_author(s, static_cast<ProcessId>((s * 7) % 5));  // 4: bad
  }
  LeaderTracker rejoiner(4, 1, kDepth, /*rotate=*/true);
  rejoiner.restore(kBoundary, source.recent_authors(kBoundary));
  for (Slot s = kBoundary; s < kBoundary + kDepth; ++s) {
    EXPECT_EQ(rejoiner.view1_leader(s), source.view1_leader(s)) << "slot " << s;
  }
  // A boundary inside the first window carries fewer authors.
  EXPECT_EQ(source.recent_authors(3).size(), 2u);
}

TEST(LeaderTrackerTest, SuspicionClearsWhenTheReplicaIsHeard) {
  LeaderTracker tracker(4, /*self=*/2, 1, false);
  EXPECT_FALSE(tracker.suspect(2)) << "never suspects itself";
  EXPECT_TRUE(tracker.suspect(0));
  EXPECT_FALSE(tracker.suspect(0)) << "already suspected";
  EXPECT_TRUE(tracker.suspected()[0]);
  tracker.heard_from(9);  // not a replica: ignored
  tracker.heard_from(0);
  EXPECT_FALSE(tracker.suspected()[0]);
}

// --- Exhaustive small-scope model -------------------------------------------
//
// Four replicas run fill_window's loop around next_step. One of them is
// the observer; the model enumerates every order of these events (breadth
// first, so the first violation it finds has a shortest trace):
//  * a client command reaches a replica (clients send to all n);
//  * a proposal, or a peer's ack or early wish for a slot the observer has
//    not opened, reaches the observer: either opens every slot up to that
//    one (the on_wrapped join), and the proposal is acked;
//  * a slot decides at the observer, which acked it, once n - f replicas
//    acked; decisions apply in slot order and release unapplied claims;
//  * a keep-alive hold timer fires (once per run: a hold that never fires
//    stays armed, which counts as a proposal to come).
// Every other replica receives each proposal the moment it is sent (or
// its window reaches the slot, as parked_ replays it) and decides the
// moment n - f replicas acked. Each live follower takes a turn as the
// observer (with a pinned leader one suffices: followers are alike). Each
// replica is live, crashed (silent) or suspected (silent, and every live
// replica suspects it), at most f = 1 of them not live.
//
// Abstracted away: two replicas out of step at once, view changes and
// view timers (a slot led by a silent replica stays open; that its timer
// fires is outside the rule), message loss, Byzantine replicas, snapshots,
// and batches past max_batch (two commands always fit one). Decided
// authors are the view-1 leaders: the schedule is LeaderTracker's
// fault-free one.
//
// At every state where no event is enabled it checks
//  * liveness: every command a live replica holds unapplied sits in an
//    open slot of that replica (whose view timer runs) or behind its
//    armed hold, and no open slot of a suspected leader waits for that
//    leader's timer: it wished early;
//  * no spurious view change (all replicas live): every open slot was
//    proposed by its leader, or its leader holds it.

constexpr std::uint32_t kN = 4;
constexpr int kQuorum = 3;          // n - f acks decide a slot
constexpr std::size_t kSlots = 12;  // slots 1 .. kSlots - 1
constexpr std::uint8_t kProposed = 0x80;

enum class Status : std::uint8_t { kLive, kCrashed, kSuspected };

struct ModelConfig {
  std::uint32_t depth = 2;
  bool rotate = false;
  bool eager = false;
  std::uint32_t commands = 1;
  std::array<Status, kN> status{};
  ProcessId observer = 1;

  std::string describe() const {
    std::ostringstream out;
    out << "n=4 D=" << depth << (rotate ? " rotating" : " pinned")
        << (eager ? " eager" : " on-demand") << ", " << commands
        << " command(s), observer p" << observer;
    for (ProcessId p = 0; p < kN; ++p) {
      if (status[p] == Status::kCrashed) out << ", p" << p << " crashed";
      if (status[p] == Status::kSuspected) out << ", p" << p << " suspected";
    }
    return out.str();
  }
};

/// Per-slot flags at one replica.
enum : std::uint8_t {
  kVoted = 1,
  kDecided = 2,
  kWished = 4,
  /// Opened for a waiting command that a proposal this replica already
  /// acked carries (WindowModelCheck.FollowerAckedBeforeItsCommand...).
  kAckedFirst = 8,
};

struct ReplicaModel {
  std::uint8_t next_start = 1;
  std::uint8_t next_apply = 1;
  std::uint8_t hold_armed = 0;
  std::uint8_t hold_released = 0;
  std::uint8_t arrived = 0;  // command bitmasks
  std::uint8_t applied = 0;
  std::uint8_t unclaimed = 0;
  std::array<std::uint8_t, kSlots> claimed{};  // claimed into each slot
  std::array<std::uint8_t, kSlots> flags{};
  bool operator==(const ReplicaModel&) const = default;

  bool is_open(Slot s) const {
    return s >= next_apply && s < next_start && !(flags[s] & kDecided);
  }
};

struct World {
  std::array<ReplicaModel, kN> replicas{};
  std::array<std::uint8_t, kSlots> proposal{};  // kProposed | commands
  std::array<std::uint8_t, kSlots> voters{};
  std::array<std::uint8_t, kSlots> talkers{};  // sent traffic for the slot
  std::uint8_t holds_fired = 0;
  bool operator==(const World&) const = default;
};

struct WorldHash {
  std::size_t operator()(const World& w) const {
    return std::hash<std::string_view>()(std::string_view(
        reinterpret_cast<const char*>(&w), sizeof(World)));
  }
};

enum class EventKind : std::uint8_t {
  kArrive,
  kHold,
  kPropose,
  kHear,
  kDecide,
};

struct Event {
  EventKind kind;
  ProcessId replica;
  std::uint32_t arg;  // command index or slot
};

class WindowModel {
 public:
  explicit WindowModel(ModelConfig cfg) : cfg_(cfg), suspected_(kN, false) {
    for (ProcessId p = 0; p < kN; ++p) {
      suspected_[p] = cfg_.status[p] == Status::kSuspected;
    }
  }

  /// The two shapes of a spurious wait the rule has today, which the check
  /// counts instead of failing on: a follower opened the slot for a
  /// command that a proposal it had already acked carries, or (rotating
  /// leaders) every command it claimed into the slot rode another leader's
  /// slot — the rule waits only for the next slot's own leader.
  struct Known {
    bool acked_first = false;
    bool other_leader = false;
  };

  struct Result {
    std::size_t states = 0;
    /// Quiescent states whose only fault is a known gap, by shape.
    std::size_t acked_first = 0;
    std::size_t other_leader = 0;
    std::optional<std::string> violation;
  };

  World initial() const {
    World w;
    for (ProcessId p = 0; p < kN; ++p) {
      if (live(p)) fill_window(w, p);  // SlotMux::start
    }
    settle(w);
    return w;
  }

  std::vector<Event> enabled(const World& w) const {
    std::vector<Event> events;
    for (ProcessId p = 0; p < kN; ++p) {
      if (!live(p)) continue;
      const ReplicaModel& r = w.replicas[p];
      for (std::uint32_t c = 0; c < cfg_.commands; ++c) {
        if (!(r.arrived & (1u << c))) {
          events.push_back({EventKind::kArrive, p, c});
        }
      }
      if (r.hold_armed == r.next_start && r.hold_released != r.hold_armed &&
          w.holds_fired == 0) {
        events.push_back({EventKind::kHold, p, 0});
      }
    }
    const ProcessId o = cfg_.observer;
    const ReplicaModel& r = w.replicas[o];
    const Slot end = std::min<Slot>(r.next_apply + cfg_.depth, kSlots);
    for (Slot s = r.next_apply; s < end; ++s) {
      const auto slot = static_cast<std::uint32_t>(s);
      if (r.flags[s] & kDecided) continue;
      if (r.flags[s] & kVoted) {
        if (std::popcount(w.voters[s]) >= kQuorum) {
          events.push_back({EventKind::kDecide, o, slot});
        }
        continue;
      }
      if (w.proposal[s] & kProposed) {
        events.push_back({EventKind::kPropose, o, slot});
      }
      // A peer's ack or wish overtaking the proposal (the leader's own
      // traffic is the proposal).
      const unsigned peers = ~((1u << o) | (1u << leader_of(s)));
      if (s >= r.next_start && (w.talkers[s] & peers) != 0) {
        events.push_back({EventKind::kHear, o, slot});
      }
    }
    return events;
  }

  void apply(World& w, const Event& e) const {
    ReplicaModel& r = w.replicas[e.replica];
    switch (e.kind) {
      case EventKind::kArrive:
        r.arrived |= 1u << e.arg;
        if (!(r.applied & (1u << e.arg))) {  // else admit refuses it
          r.unclaimed |= 1u << e.arg;
          fill_window(w, e.replica);
        }
        break;
      case EventKind::kHold:
        r.hold_released = r.hold_armed;
        ++w.holds_fired;
        fill_window(w, e.replica);
        break;
      case EventKind::kPropose:
        join(w, e.replica, e.arg);
        vote(w, e.replica, e.arg);
        break;
      case EventKind::kHear:
        join(w, e.replica, e.arg);
        break;
      case EventKind::kDecide:
        decide(w, e.replica, e.arg);
        break;
    }
    settle(w);
  }

  /// Checks a state where no event is enabled; returns the violated
  /// property, and sets `known` for the spurious waits it forgives.
  std::optional<std::string> check(const World& w, Known& known) const {
    const bool all_live = std::all_of(
        cfg_.status.begin(), cfg_.status.end(),
        [](Status s) { return s == Status::kLive; });
    for (ProcessId p = 0; p < kN; ++p) {
      if (!live(p)) continue;
      const ReplicaModel& r = w.replicas[p];
      bool any_open = false;
      for (Slot s = r.next_apply; s < r.next_start; ++s) {
        if (!r.is_open(s)) continue;
        any_open = true;
        const ProcessId leader = leader_of(s);
        const std::string where = "p" + std::to_string(p) + "'s slot " +
                                  std::to_string(s) + " waits for p" +
                                  std::to_string(leader);
        if (suspected_[leader] && !(r.flags[s] & (kVoted | kWished))) {
          return "liveness: " + where + "'s view timer, a suspect's";
        }
        const ReplicaModel& l = w.replicas[leader];
        const bool held = l.hold_armed == s && l.hold_released != s;
        if (!all_live || (w.proposal[s] & kProposed) || held) continue;
        if (r.flags[s] & kAckedFirst) {
          known.acked_first = true;
        } else if (cfg_.rotate && r.claimed[s] != 0 &&
                   (r.claimed[s] & ~r.applied) == 0) {
          known.other_leader = true;
        } else {
          return "spurious view change: " + where +
                 "'s proposal, which never comes";
        }
      }
      const bool waiting = (r.arrived & ~r.applied) != 0;
      const bool held = r.hold_armed == r.next_start &&
                        r.hold_released != r.hold_armed;
      if (waiting && !any_open && !held) {
        return "liveness: a command waits at p" + std::to_string(p) +
               " with no open slot and no armed timer";
      }
    }
    return std::nullopt;
  }

  Result explore() const {
    struct Node {
      World world;
      std::int64_t parent;
      Event via;
    };
    Result result;
    std::vector<Node> nodes;
    std::unordered_set<World, WorldHash> seen;
    nodes.push_back({initial(), -1, {}});
    seen.insert(nodes.front().world);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::vector<Event> events = enabled(nodes[i].world);
      if (events.empty()) {
        Known known;
        if (auto bad = check(nodes[i].world, known)) {
          std::vector<Event> path;
          for (auto k = static_cast<std::int64_t>(i); nodes[k].parent >= 0;
               k = nodes[k].parent) {
            path.insert(path.begin(), nodes[k].via);
          }
          result.violation = cfg_.describe() + ": " + *bad + "\n" +
                             trace(path, nodes[i].world);
          break;
        }
        result.acked_first += known.acked_first;
        result.other_leader += known.other_leader;
      }
      for (const Event& e : events) {
        World next = nodes[i].world;
        apply(next, e);
        forget_the_past(next);
        if (seen.insert(next).second) {
          nodes.push_back({next, static_cast<std::int64_t>(i), e});
        }
      }
      FASTBFT_ASSERT(nodes.size() < 2'000'000, "window model grew too big");
    }
    result.states = nodes.size();
    return result;
  }

  /// Numbered events, then each live replica's open slots.
  std::string trace(const std::vector<Event>& path, const World& w) const {
    std::ostringstream out;
    for (std::size_t i = 0; i < path.size(); ++i) {
      out << "  " << i + 1 << ". " << describe(path[i]) << "\n";
    }
    for (ProcessId p = 0; p < kN; ++p) {
      if (!live(p)) continue;
      const ReplicaModel& r = w.replicas[p];
      out << "  p" << p << ": applied below slot " << int(r.next_apply)
          << ", open:";
      for (Slot s = r.next_apply; s < r.next_start; ++s) {
        if (!r.is_open(s)) continue;
        out << " " << s << (w.proposal[s] & kProposed ? "" : " (unproposed)")
            << (r.flags[s] & kVoted ? " (acked)" : "");
      }
      out << "\n";
    }
    return out.str();
  }

  ProcessId leader_of(Slot s) const {
    return cfg_.rotate ? static_cast<ProcessId>((s - 1) % kN) : 0;
  }

 private:
  bool live(ProcessId p) const { return cfg_.status[p] == Status::kLive; }

  static std::string describe(const Event& e) {
    const std::string p = "p" + std::to_string(e.replica);
    const std::string s = "slot " + std::to_string(e.arg);
    switch (e.kind) {
      case EventKind::kArrive:
        return "c" + std::to_string(e.arg + 1) + " reaches " + p;
      case EventKind::kHold:
        return p + "'s hold timer fires";
      case EventKind::kPropose:
        return "the proposal for " + s + " reaches " + p;
      case EventKind::kHear:
        return p + " hears a peer's traffic for " + s;
      case EventKind::kDecide:
        return s + " decides at " + p;
    }
    return {};
  }

  /// Every replica but the observer takes each proposal as soon as its
  /// window reaches it.
  void settle(World& w) const {
    for (bool moved = true; moved;) {
      moved = false;
      for (ProcessId p = 0; p < kN; ++p) {
        if (!live(p) || p == cfg_.observer) continue;
        const ReplicaModel& r = w.replicas[p];
        const Slot end = std::min<Slot>(r.next_apply + cfg_.depth, kSlots);
        for (Slot s = r.next_apply; s < end; ++s) {
          if ((w.proposal[s] & kProposed) &&
              !(r.flags[s] & (kVoted | kDecided))) {
            join(w, p, s);
            vote(w, p, s);
            moved = true;
          }
        }
      }
    }
  }

  /// SlotMux::fill_window around the real next_step.
  void fill_window(World& w, ProcessId p) const {
    ReplicaModel& r = w.replicas[p];
    for (;;) {
      std::array<OpenSlot, kSlots> open;
      std::size_t count = 0;
      for (Slot s = r.next_apply; s < r.next_start; ++s) {
        if (r.is_open(s)) {
          open[count++] = {leader_of(s), (r.flags[s] & kVoted) != 0};
        }
      }
      const WindowStep step = next_step(
          {.self = p, .next = r.next_start,
           .end = r.next_apply + cfg_.depth,
           .leader = leader_of(r.next_start),
           .command_waiting = r.unclaimed != 0, .eager = cfg_.eager,
           .hold_armed = r.hold_armed, .hold_released = r.hold_released},
          suspected_, std::span(open.data(), count));
      if (step == WindowStep::kArmHold) r.hold_armed = r.next_start;
      if (step != WindowStep::kOpen) return;
      start_slot(w, p, r.next_start++);
    }
  }

  /// The on_wrapped join: opens every slot up to `slot`.
  void join(World& w, ProcessId p, Slot slot) const {
    while (w.replicas[p].next_start <= slot) {
      start_slot(w, p, w.replicas[p].next_start++);
    }
  }

  /// SlotMux::start_slot: claims every waiting command, proposes if this
  /// replica leads the slot, and wishes early if the rule says so.
  void start_slot(World& w, ProcessId p, Slot s) const {
    FASTBFT_ASSERT(s < kSlots, "window model slot bound too small");
    ReplicaModel& r = w.replicas[p];
    std::uint8_t acked = 0;
    for (Slot k = r.next_apply; k < s; ++k) {
      if (r.flags[k] & kVoted) acked |= w.proposal[k] & ~kProposed;
    }
    if (r.unclaimed & acked) r.flags[s] |= kAckedFirst;
    r.claimed[s] = r.unclaimed;
    r.unclaimed = 0;
    if (leader_of(s) == p) {
      w.proposal[s] = kProposed | r.claimed[s];
      vote(w, p, s);
    } else if (wishes_early({leader_of(s), false}, suspected_)) {
      r.flags[s] |= kWished;
      w.talkers[s] |= 1u << p;
    }
  }

  /// `p` acks slot `s`; once n - f did, every replica that acked but the
  /// observer decides at once.
  void vote(World& w, ProcessId p, Slot s) const {
    w.replicas[p].flags[s] |= kVoted;
    w.voters[s] |= 1u << p;
    w.talkers[s] |= 1u << p;
    if (std::popcount(w.voters[s]) < kQuorum) return;
    for (ProcessId q = 0; q < kN; ++q) {
      const ReplicaModel& r = w.replicas[q];
      if (q != cfg_.observer && (w.voters[s] & (1u << q)) &&
          s >= r.next_apply && !(r.flags[s] & kDecided)) {
        decide(w, q, s);
      }
    }
  }

  /// Decisions apply in slot order, release unapplied claims and refill
  /// the window.
  void decide(World& w, ProcessId p, Slot s) const {
    ReplicaModel& r = w.replicas[p];
    r.flags[s] |= kDecided;
    while (r.next_apply < r.next_start && (r.flags[r.next_apply] & kDecided)) {
      const Slot k = r.next_apply++;
      r.applied |= w.proposal[k] & ~kProposed;
      r.arrived |= r.applied;  // a later arrival is refused: a no-op
      r.unclaimed = (r.unclaimed | r.claimed[k]) & ~r.applied;
      r.claimed[k] = 0;
    }
    fill_window(w, p);
  }

  /// Clears what no event or check reads any more, so states that differ
  /// only there are explored once: slot data below every live replica's
  /// apply cursor, traffic every live replica joined, passed hold slots.
  void forget_the_past(World& w) const {
    Slot applied = kSlots, opened = kSlots;
    for (ProcessId p = 0; p < kN; ++p) {
      if (!live(p)) continue;
      ReplicaModel& r = w.replicas[p];
      applied = std::min<Slot>(applied, r.next_apply);
      opened = std::min<Slot>(opened, r.next_start);
      for (Slot s = 1; s < r.next_apply; ++s) r.flags[s] = 0;
      if (r.hold_armed < r.next_start) r.hold_armed = 0;
      if (r.hold_released < r.next_start) r.hold_released = 0;
    }
    for (Slot s = 1; s < applied; ++s) w.proposal[s] = w.voters[s] = 0;
    for (Slot s = 1; s < opened; ++s) w.talkers[s] = 0;
  }

  ModelConfig cfg_;
  std::vector<bool> suspected_;
};

/// Every configuration: D in 1..3, pinned or rotating, eager or
/// on-demand, one or two commands, every replica live or one of them
/// crashed or suspected, and each live follower as the observer (the
/// first one only with a pinned leader).
std::vector<ModelConfig> all_configs() {
  std::vector<ModelConfig> configs;
  for (std::uint32_t depth = 1; depth <= 3; ++depth) {
    for (bool rotate : {false, true}) {
      for (bool eager : {false, true}) {
        for (std::uint32_t commands = 1; commands <= 2; ++commands) {
          std::vector<std::array<Status, kN>> statuses(1);
          for (ProcessId p = 0; p < kN; ++p) {
            for (Status s : {Status::kCrashed, Status::kSuspected}) {
              statuses.emplace_back()[p] = s;
            }
          }
          for (const auto& status : statuses) {
            for (ProcessId o = 1; o < kN; ++o) {
              if (status[o] != Status::kLive) continue;
              configs.push_back({depth, rotate, eager, commands, status, o});
              if (!rotate) break;
            }
            if (rotate && status[0] == Status::kLive) {
              configs.push_back({depth, rotate, eager, commands, status, 0});
            }
          }
        }
      }
    }
  }
  return configs;
}

TEST(WindowModelCheck, SmallClustersStayLiveAndNeverWaitInVain) {
  std::size_t states = 0;
  std::size_t acked_first = 0;
  std::size_t other_leader = 0;
  const std::vector<ModelConfig> configs = all_configs();
  for (const ModelConfig& cfg : configs) {
    const WindowModel::Result result = WindowModel(cfg).explore();
    ASSERT_FALSE(result.violation.has_value()) << *result.violation;
    states += result.states;
    acked_first += result.acked_first;
    other_leader += result.other_leader;
  }
  std::printf("window model: %zu configurations, %zu states; known gaps at "
              "%zu + %zu quiescent states\n",
              configs.size(), states, acked_first, other_leader);
}

/// Applies `prefix` to the initial state, then the first enabled event
/// until none is.
World run_to_rest(const WindowModel& model, const std::vector<Event>& prefix) {
  World w = model.initial();
  for (const Event& e : prefix) model.apply(w, e);
  for (auto next = model.enabled(w); !next.empty(); next = model.enabled(w)) {
    model.apply(w, next.front());
  }
  return w;
}

constexpr auto kArrive = EventKind::kArrive;
constexpr auto kPropose = EventKind::kPropose;
constexpr auto kHear = EventKind::kHear;

// The shortest trace that fails the check once the follower rule opens a
// slot whenever a command waits: p1 joined slot 1 on a peer's ack, so the
// command may still ride p0's proposal, and p1 waits for it.
TEST(WindowModelCheck, FollowerThatJoinedOnAPeersAckWaitsForTheProposal) {
  const WindowModel model({.depth = 2, .observer = 1});
  World w = model.initial();
  for (Event e : {Event{kArrive, 0, 0}, {kHear, 1, 1}, {kArrive, 1, 0}}) {
    model.apply(w, e);
  }
  EXPECT_EQ(w.replicas[1].next_start, 2u) << "p1 opened only slot 1";
  w = run_to_rest(model, {{kArrive, 0, 0}, {kHear, 1, 1}, {kArrive, 1, 0}});
  WindowModel::Known known;
  EXPECT_FALSE(model.check(w, known).has_value());
  EXPECT_FALSE(known.acked_first || known.other_leader);
}

// ROADMAP direction 7's open case, which the model finds; today's
// behaviour, kept until the rule changes: a follower that acked p0's
// proposal before the command it carries reached it opens slot 2 for that
// command. On demand, p0 has nothing to put there and never proposes
// slot 2, so p1's slot waits out a view timer; eager, p0's keep-alive
// hold fills it.
TEST(WindowModelCheck, FollowerAckedBeforeItsCommandArrivedOpensASlotNobodyFills) {
  const std::vector<Event> prefix = {
      {kArrive, 0, 0}, {kPropose, 1, 1}, {kArrive, 1, 0}};
  const WindowModel on_demand({.depth = 2, .observer = 1});
  const World w = run_to_rest(on_demand, prefix);
  const ReplicaModel& p1 = w.replicas[1];
  EXPECT_EQ(p1.applied, 1u) << "c1 applied in slot 1";
  EXPECT_TRUE(p1.is_open(2));
  EXPECT_EQ(p1.claimed[2], 1u) << "claimed for c1";
  EXPECT_FALSE(w.proposal[2] & kProposed);
  WindowModel::Known known;
  EXPECT_FALSE(on_demand.check(w, known).has_value());
  EXPECT_TRUE(known.acked_first);

  const WindowModel eager({.depth = 2, .eager = true, .observer = 1});
  World held = eager.initial();
  for (const Event& e : prefix) eager.apply(held, e);
  EXPECT_TRUE(held.replicas[1].is_open(2));
  EXPECT_EQ(held.replicas[0].hold_armed, 2u);
}

// The rotating counterpart, also found by the model: p2 joined slot 1 on
// a peer's ack before p0's proposal reached it, and the rule waits only
// for the next slot's own leader, so the command opens slot 2 (led by p1)
// though it rides slot 1.
TEST(WindowModelCheck, CommandRidingAnotherLeadersSlotOpensASlotNobodyFills) {
  const WindowModel model({.depth = 2, .rotate = true, .observer = 2});
  const World w =
      run_to_rest(model, {{kArrive, 0, 0}, {kHear, 2, 1}, {kArrive, 2, 0}});
  const ReplicaModel& p2 = w.replicas[2];
  EXPECT_EQ(p2.applied, 1u) << "c1 applied in slot 1";
  EXPECT_TRUE(p2.is_open(2));
  EXPECT_EQ(p2.claimed[2], 1u);
  EXPECT_FALSE(w.proposal[2] & kProposed) << "p1 never proposes slot 2";
  WindowModel::Known known;
  EXPECT_FALSE(model.check(w, known).has_value());
  EXPECT_TRUE(known.other_leader);
}

}  // namespace
}  // namespace fastbft::engine
