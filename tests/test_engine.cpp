#include <gtest/gtest.h>

#include "engine/catchup.hpp"
#include "engine/host.hpp"
#include "engine/pending_queue.hpp"
#include "engine/slot_window.hpp"
#include "engine/timer_wheel.hpp"
#include "net/tags.hpp"

/// Engine policy objects in isolation: the host-agnostic timer wheel
/// (eager cancellation) and the catch-up policy's watermark-based
/// retention trimming plus snapshot retention/state transfer.

namespace fastbft::engine {
namespace {

// --- TimerWheel over the Host seam ------------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrderThroughSimHost) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  std::vector<int> order;
  wheel.schedule_after(30, [&] { order.push_back(3); });
  wheel.schedule_after(10, [&] { order.push_back(1); });
  wheel.schedule_after(20, [&] { order.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  sched.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelDropsEntryEagerly) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  int fired = 0;
  wheel.schedule_after(10, [&] { fired |= 1; });
  auto far = wheel.schedule_after(1'000'000, [&] { fired |= 2; });
  EXPECT_EQ(wheel.pending(), 2u);

  // Eager drop: the far-deadline entry leaves the wheel at cancel() time
  // instead of pinning a slot until its deadline.
  far.cancel();
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(wheel.cancelled_dropped(), 1u);
  EXPECT_FALSE(far.active());

  sched.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);

  // Cancelling after the wheel already dropped the entry is a no-op.
  far.cancel();
  EXPECT_EQ(wheel.cancelled_dropped(), 1u);
}

TEST(TimerWheelTest, CancellingEarliestEntryDoesNotLoseLaterOnes) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  bool late_fired = false;
  auto early = wheel.schedule_after(10, [] { FAIL() << "cancelled timer"; });
  wheel.schedule_after(40, [&] { late_fired = true; });
  early.cancel();
  EXPECT_EQ(wheel.pending(), 1u);
  // The wheel's host event was armed for t=10; it fires, finds nothing
  // due, and re-arms for the surviving deadline.
  sched.run_until(100);
  EXPECT_TRUE(late_fired);
}

TEST(TimerWheelTest, HandleOutlivingWheelIsSafeToCancel) {
  sim::Scheduler sched;
  sim::TimerHandle handle;
  {
    SimHost host(sched);
    TimerWheel wheel(host);
    handle = wheel.schedule_after(50, [] { FAIL() << "wheel destroyed"; });
  }
  handle.cancel();  // must not touch the destroyed wheel
  sched.run_to_completion();
}

TEST(TimerWheelTest, TimerArmedWhileFiringRuns) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  bool rearmed_fired = false;
  wheel.schedule_after(10, [&] {
    wheel.schedule_after(10, [&] { rearmed_fired = true; });
  });
  sched.run_until(100);
  EXPECT_TRUE(rearmed_fired);
}

// --- CatchUpPolicy watermark trimming --------------------------------------------

Value val(const std::string& s) { return Value::of_string(s); }

TEST(CatchUpPolicyTest, WatermarkFloorPrunesDecidedValues) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  for (Slot s = 1; s <= 6; ++s) {
    policy.record_decided(s, val("v" + std::to_string(s)));
  }
  EXPECT_EQ(policy.decided_count(), 6u);
  EXPECT_EQ(policy.prune_floor(), 1u);

  // Retention is pinned by the slowest process: three fast peers do not
  // move the floor while p3 still reports nothing applied.
  policy.note_watermark(0, 5);
  policy.note_watermark(1, 5);
  policy.note_watermark(2, 7);
  EXPECT_EQ(policy.decided_count(), 6u);

  policy.note_watermark(3, 4);
  EXPECT_EQ(policy.prune_floor(), 4u);
  EXPECT_EQ(policy.decided_count(), 3u);  // slots 4, 5, 6 retained
  EXPECT_EQ(policy.pruned_count(), 3u);
  EXPECT_EQ(policy.decided(3), nullptr);
  ASSERT_NE(policy.decided(4), nullptr);

  // Pruned slots can no longer be served; retained ones can.
  EXPECT_FALSE(policy.reply_for(2, 1).has_value());
  EXPECT_TRUE(policy.reply_for(4, 1).has_value());
}

TEST(CatchUpPolicyTest, StaleAndOutOfRangeGossipIsIgnored) {
  CatchUpPolicy policy(2, 3);
  policy.record_decided(1, val("a"));
  policy.record_decided(2, val("b"));
  for (ProcessId p = 0; p < 3; ++p) policy.note_watermark(p, 3);
  EXPECT_EQ(policy.prune_floor(), 3u);
  EXPECT_EQ(policy.decided_count(), 0u);

  // A reordered old message can never regress the floor.
  policy.note_watermark(1, 2);
  EXPECT_EQ(policy.prune_floor(), 3u);

  // Gossip from an id outside the cluster is dropped.
  policy.note_watermark(99, 100);
  EXPECT_EQ(policy.prune_floor(), 3u);
}

TEST(CatchUpPolicyTest, QuorumAppliedBelowIsTheThresholdthHighestWatermark) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  EXPECT_EQ(policy.quorum_applied_below(), 1u);
  // One peer ahead is not enough: it may be the Byzantine one.
  EXPECT_TRUE(policy.note_watermark(1, 9));
  EXPECT_EQ(policy.quorum_applied_below(), 1u);
  EXPECT_TRUE(policy.note_watermark(2, 6));
  EXPECT_EQ(policy.quorum_applied_below(), 6u);
  EXPECT_TRUE(policy.note_watermark(3, 7));
  EXPECT_EQ(policy.quorum_applied_below(), 7u);
  EXPECT_EQ(policy.watermark(2), 6u);
  // Stale and out-of-range gossip report no advance.
  EXPECT_FALSE(policy.note_watermark(3, 5));
  EXPECT_FALSE(policy.note_watermark(99, 50));
  EXPECT_EQ(policy.quorum_applied_below(), 7u);
}

TEST(DecidedPullCodec, RoundTripsAndRejectsMalformed) {
  Bytes wire = encode_decided_pull(/*group=*/3, /*slot=*/42);
  EXPECT_EQ(decode_decided_pull(wire, 3), std::optional<Slot>(42));
  EXPECT_FALSE(decode_decided_pull(wire, 0).has_value()) << "foreign group";
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(decode_decided_pull(trailing, 3).has_value());
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(decode_decided_pull(truncated, 3).has_value());
  EXPECT_FALSE(decode_decided_pull(encode_decided_pull(3, 0), 3).has_value());
  Bytes wrong_tag = wire;
  wrong_tag[0] = net::tags::kSmrDecided;
  EXPECT_FALSE(decode_decided_pull(wrong_tag, 3).has_value());
}

TEST(CatchUpPolicyTest, ClaimStateBelowFloorIsDroppedAndStaysOut) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  // One claim parked for slot 1 (below threshold).
  EXPECT_FALSE(policy.add_claim(1, 2, val("x")).has_value());
  for (ProcessId p = 0; p < 4; ++p) policy.note_watermark(p, 2);
  // The parked claim set was trimmed with the floor, and new claims for
  // pruned slots are rejected outright — even a threshold's worth of
  // Byzantine claimants can neither adopt nor re-park state below it.
  EXPECT_FALSE(policy.add_claim(1, 0, val("x")).has_value());
  EXPECT_FALSE(policy.add_claim(1, 3, val("x")).has_value());
  EXPECT_FALSE(policy.ready_claim(1).has_value());
}

// --- SlotWindow -------------------------------------------------------------------

TEST(SlotWindowTest, BehavesLikeAnOrderedMapOverNearbySlots) {
  SlotWindow<Value> window;
  EXPECT_TRUE(window.empty());
  window.emplace(12, val("c"));
  window.emplace(10, val("a"));  // below the first slot
  window.emplace(15, val("e"));  // past it, leaving holes
  window.emplace(10, val("other"));  // an existing slot keeps its value
  EXPECT_EQ(window.size(), 3u);
  ASSERT_NE(window.find(10), nullptr);
  EXPECT_EQ(*window.find(10), val("a"));
  EXPECT_EQ(window.find(11), nullptr);
  EXPECT_EQ(window.find(9), nullptr);
  EXPECT_EQ(window.find(16), nullptr);
  window.erase(10);
  window.erase(11);  // absent: no-op
  EXPECT_FALSE(window.contains(10));
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.erase_below(15), 1u);  // 12 goes, 15 stays
  EXPECT_TRUE(window.contains(15));
  window.erase(15);
  EXPECT_TRUE(window.empty());
  window.emplace(3, val("x"));  // an emptied window restarts anywhere
  EXPECT_EQ(*window.find(3), val("x"));
}

// --- PendingQueue dedup horizon ---------------------------------------------------

TEST(PendingQueueTest, AppliedHorizonPruneIsDeterministicBySlotTag) {
  PendingQueue queue;
  auto cmd = [](std::uint64_t seq) {
    return smr::Command::put("k", "v", /*client=*/1, seq);
  };
  EXPECT_TRUE(queue.applied(cmd(1), /*slot=*/5));
  EXPECT_TRUE(queue.applied(cmd(2), /*slot=*/9));
  EXPECT_FALSE(queue.applied(cmd(1), /*slot=*/10)) << "duplicate must skip";

  // Pruning keys on the slot that applied each id, so every replica
  // pruning at the same boundary drops the same records.
  queue.prune_applied_before(8);
  ASSERT_EQ(queue.applied_ids().size(), 1u);
  EXPECT_EQ(queue.applied_ids()[0],
            (PendingQueue::AppliedEntry{{1, 2}, 9}));

  // A pruned id re-applies — identically on every replica, which is what
  // keeps the horizon safe against replays of ancient commands.
  EXPECT_TRUE(queue.applied(cmd(1), /*slot=*/12));
}

TEST(PendingQueueTest, ClaimsSkipClaimedAndAppliedAndReturnOnRelease) {
  PendingQueue queue;
  auto cmd = [](std::uint64_t seq) {
    return smr::Command::put("k" + std::to_string(seq), "v", 1, seq);
  };
  auto seqs = [](const std::vector<const smr::Command*>& batch) {
    std::vector<std::uint64_t> out;
    for (const auto* c : batch) out.push_back(c->sequence);
    return out;
  };
  using Seqs = std::vector<std::uint64_t>;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(queue.admit(cmd(seq)));
  }
  EXPECT_FALSE(queue.admit(cmd(3))) << "duplicate admit";
  EXPECT_TRUE(queue.has_unclaimed());
  EXPECT_EQ(seqs(queue.claim(1, 2)), (Seqs{1, 2}));
  EXPECT_EQ(seqs(queue.claim(2, 2)), (Seqs{3, 4}));
  EXPECT_EQ(queue.claimed_count(), 4u);
  EXPECT_TRUE(queue.applied(cmd(5), /*slot=*/9));  // applied, never claimed
  EXPECT_FALSE(queue.has_unclaimed());
  EXPECT_TRUE(queue.claim(3, 8).empty());

  // A released claim is claimable again, in queue order.
  queue.release(1);
  EXPECT_TRUE(queue.has_unclaimed());
  EXPECT_EQ(seqs(queue.claim(3, 8)), (Seqs{1, 2}));
  // A claimed command applied by another slot stays out after release.
  EXPECT_TRUE(queue.applied(cmd(3), /*slot=*/10));
  queue.release(2);
  EXPECT_EQ(seqs(queue.claim(4, 8)), (Seqs{4}));
  EXPECT_EQ(queue.claimed_count(), 3u);

  // Applying the prefix trims it (3 was applied already); the applied 5
  // behind the unapplied 4 stays queued.
  EXPECT_TRUE(queue.applied(cmd(1), 11));
  EXPECT_TRUE(queue.applied(cmd(2), 11));
  EXPECT_EQ(queue.pending_count(), 2u);
  queue.release(3);
  queue.release(4);
  EXPECT_EQ(queue.claimed_count(), 0u);
  EXPECT_TRUE(queue.has_unclaimed());

  // Pruning the dedup record of an applied command still queued behind an
  // unapplied one makes it claimable again, as it was before the prune.
  queue.prune_applied_before(10);  // drops 5's record (slot 9)
  EXPECT_EQ(seqs(queue.claim(5, 8)), (Seqs{4, 5}));
  // Restoring a snapshot's dedup state replaces it wholesale.
  queue.release(5);
  queue.restore_applied({{{1, 4}, 12}});
  EXPECT_EQ(seqs(queue.claim(6, 8)), (Seqs{5}));
  EXPECT_EQ(queue.pending_count(), 1u) << "the applied 4 was trimmed";
}

// --- CatchUpPolicy snapshot retention & state transfer ---------------------------

smr::Snapshot test_snapshot(Slot applied_below) {
  smr::Snapshot snap;
  snap.applied_below = applied_below;
  snap.applied_commands = applied_below - 1;
  snap.kv_state = to_bytes("kv-state-" + std::to_string(applied_below));
  snap.applied_ids = {{{1, 1}, 1}, {{1, 2}, 2}};
  return snap;
}

/// Adopts test_snapshot(applied_below) eagerly, as an install does.
void note_test_snapshot(CatchUpPolicy& policy, Slot applied_below) {
  Bytes body = test_snapshot(applied_below).encode();
  crypto::Digest digest = crypto::sha256(body);
  policy.note_snapshot(applied_below, std::move(body), digest);
}

TEST(CatchUpPolicySnapshot, SnapshotUnpinsRetentionFromFrozenWatermark) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  for (Slot s = 1; s <= 12; ++s) {
    policy.record_decided(s, val("v" + std::to_string(s)));
  }
  // p3 crashed after applying 2 slots: its frozen watermark pins the
  // floor at 3 no matter how far the healthy peers advance.
  policy.note_watermark(3, 3);
  for (ProcessId p = 0; p < 3; ++p) policy.note_watermark(p, 13);
  EXPECT_EQ(policy.prune_floor(), 3u);
  EXPECT_EQ(policy.decided_count(), 10u);

  // A snapshot covering slots < 9 supersedes per-slot retention below it:
  // the floor jumps past the frozen watermark and the values are pruned.
  note_test_snapshot(policy, 9);
  EXPECT_EQ(policy.prune_floor(), 9u);
  EXPECT_EQ(policy.snapshot_floor(), 9u);
  EXPECT_EQ(policy.decided_count(), 4u);  // slots 9..12 retained
  EXPECT_EQ(policy.decided(5), nullptr);

  // A stale (older) snapshot never regresses anything.
  note_test_snapshot(policy, 4);
  EXPECT_EQ(policy.snapshot_floor(), 9u);
}

TEST(CatchUpPolicySnapshot, RequestDedupsButServingAnswersEveryRequest) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);

  // Nothing to request while the peer's floor does not pass our cursor.
  EXPECT_FALSE(policy.should_request_snapshot(1, 5, 10));
  // First sight of a useful floor: ask. Same floor again: don't.
  EXPECT_TRUE(policy.should_request_snapshot(1, 9, 1));
  EXPECT_FALSE(policy.should_request_snapshot(1, 9, 1));
  // The peer snapshotting further re-opens the request.
  EXPECT_TRUE(policy.should_request_snapshot(1, 17, 1));

  // Serving: nothing before a snapshot exists.
  EXPECT_TRUE(policy.snapshot_chunks().empty());
  note_test_snapshot(policy, 9);
  auto chunks = policy.snapshot_chunks();
  EXPECT_FALSE(chunks.empty());
  EXPECT_EQ(policy.snapshots_served(), 1u);
  // A repeated request is served again: the requester may have crashed
  // mid-transfer and lost its reassembly state — holder-side dedup would
  // strand it forever (requester-side dedup bounds the honest traffic).
  EXPECT_FALSE(policy.snapshot_chunks().empty());
  EXPECT_EQ(policy.snapshots_served(), 2u);
}

TEST(CatchUpPolicySnapshot, InstallNeedsThresholdVouchersAndValidBody) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4,
                       /*snapshot_chunk_bytes=*/8);
  smr::Snapshot snap = test_snapshot(9);
  Bytes body = snap.encode();
  crypto::Digest digest = crypto::sha256(body);
  auto chunks = split_chunks(body, 8);
  ASSERT_GT(chunks.size(), 1u) << "the fixture must actually chunk";
  auto count = static_cast<std::uint32_t>(chunks.size());

  // All chunks from one sender: full body, digest fine — but a single
  // voucher proves nothing (it could have fabricated the whole snapshot).
  for (std::uint32_t i = 0; i < count; ++i) {
    EXPECT_FALSE(policy
                     .add_snapshot_chunk(/*from=*/1, 9, digest, i, count,
                                         Bytes(chunks[i]), /*next_apply=*/1)
                     .has_value());
  }

  // A second sender vouching for a DIFFERENT digest does not help.
  crypto::Digest other{};
  EXPECT_FALSE(policy
                   .add_snapshot_chunk(2, 9, other, 0, 1, Bytes{0xde, 0xad},
                                       1)
                   .has_value());

  // The second voucher for the right (slot, digest) crosses f + 1: the
  // already-complete body from sender 1 installs, handing back the
  // verified body + digest alongside the decoded snapshot.
  auto installed = policy.add_snapshot_chunk(3, 9, digest, 0, count,
                                             Bytes(chunks[0]), 1);
  ASSERT_TRUE(installed.has_value());
  EXPECT_EQ(installed->snapshot, snap);
  EXPECT_EQ(installed->body, body);
  EXPECT_EQ(installed->digest, digest);
}

TEST(CatchUpPolicySnapshot, StaleAndMalformedChunksAreRejected) {
  CatchUpPolicy policy(/*threshold=*/1, /*cluster_size=*/4);
  smr::Snapshot snap = test_snapshot(5);
  Bytes body = snap.encode();
  crypto::Digest digest = crypto::sha256(body);

  // Covering nothing beyond our cursor: useless, dropped.
  EXPECT_FALSE(policy
                   .add_snapshot_chunk(1, 5, digest, 0, 1, Bytes(body),
                                       /*next_apply=*/5)
                   .has_value());
  // Bogus chunk geometry is rejected outright.
  EXPECT_FALSE(policy.add_snapshot_chunk(1, 5, digest, 1, 1, Bytes(body), 1)
                   .has_value());
  EXPECT_FALSE(policy.add_snapshot_chunk(1, 5, digest, 0, 0, Bytes(body), 1)
                   .has_value());
  // A body that does not hash to the announced digest never installs,
  // even at threshold 1 with a complete reassembly — and the sender is
  // flagged (honest senders cannot produce a failing body, so it is
  // Byzantine; flagging stops it forcing endless re-hashing) so even its
  // later genuine bytes are ignored.
  Bytes tampered(body);
  tampered[0] ^= 0xff;
  EXPECT_FALSE(policy
                   .add_snapshot_chunk(1, 5, digest, 0, 1,
                                       std::move(tampered), 1)
                   .has_value());
  EXPECT_FALSE(policy.add_snapshot_chunk(1, 5, digest, 0, 1, Bytes(body), 1)
                   .has_value());
  // A different, honest sender still installs the same snapshot.
  EXPECT_TRUE(policy.add_snapshot_chunk(2, 5, digest, 0, 1, Bytes(body), 1)
                  .has_value());

  // A chunk exceeding the configured chunk size is flooding (the count
  // cap alone would not bound memory): rejected outright.
  CatchUpPolicy tight(/*threshold=*/1, /*cluster_size=*/4,
                      /*snapshot_chunk_bytes=*/8);
  ASSERT_GT(body.size(), 8u);
  EXPECT_FALSE(tight.add_snapshot_chunk(1, 5, digest, 0, 1, Bytes(body), 1)
                   .has_value());
}

TEST(CatchUpPolicySnapshot, DeferredBodyIsBuiltOnceOnFirstServe) {
  CatchUpPolicy eager(/*threshold=*/2, /*cluster_size=*/4,
                      /*snapshot_chunk_bytes=*/8);
  note_test_snapshot(eager, 9);
  const std::vector<Bytes> expected = eager.snapshot_chunks();
  ASSERT_GT(expected.size(), 1u) << "the fixture must actually chunk";

  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4,
                       /*snapshot_chunk_bytes=*/8);
  for (Slot s = 1; s <= 12; ++s) {
    policy.record_decided(s, val("v" + std::to_string(s)));
  }
  int builds = 0;
  auto counting = [&builds](Slot applied_below) {
    return [&builds, applied_below] {
      ++builds;
      return test_snapshot(applied_below).encode();
    };
  };

  // The floors rise at once; the body is not built yet.
  policy.defer_snapshot(9, counting(9));
  EXPECT_EQ(policy.snapshot_floor(), 9u);
  EXPECT_EQ(policy.prune_floor(), 9u);
  EXPECT_EQ(policy.decided(5), nullptr);
  EXPECT_EQ(builds, 0);

  // A stale deferred snapshot is ignored, unbuilt.
  policy.defer_snapshot(4, counting(4));
  EXPECT_EQ(policy.snapshot_floor(), 9u);
  EXPECT_EQ(builds, 0);

  // First serve builds once; repeated serves reuse the body. The chunks
  // match the eager path's byte for byte (same body, same digest).
  EXPECT_EQ(policy.snapshot_chunks(), expected);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(policy.snapshot_chunks(), expected);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(policy.snapshots_served(), 2u);

  // A newer snapshot replaces the built one; an install replaces that
  // pending image without ever building it.
  policy.defer_snapshot(17, counting(17));
  note_test_snapshot(policy, 25);
  EXPECT_EQ(policy.snapshot_floor(), 25u);
  CatchUpPolicy installed(/*threshold=*/2, /*cluster_size=*/4,
                          /*snapshot_chunk_bytes=*/8);
  note_test_snapshot(installed, 25);
  EXPECT_EQ(policy.snapshot_chunks(), installed.snapshot_chunks());
  EXPECT_EQ(builds, 1);
}

}  // namespace
}  // namespace fastbft::engine
