#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "runtime/threaded_smr_cluster.hpp"

/// The pipelined SMR engine over real OS threads and wall-clock time: the
/// identical engine code that runs on the deterministic simulator, driven
/// through engine::LoopHost. These tests cover the properties that
/// need a clock to even exist on the threaded runtime — wall-clock view
/// change under a crashed leader, in-slot-order apply with a deep
/// pipeline, and watermark-based catch-up GC.

namespace fastbft::runtime {
namespace {

using namespace std::chrono_literals;

smr::Command cmd(std::uint64_t i) {
  return smr::Command::put("key" + std::to_string(i),
                           "val" + std::to_string(i), /*client=*/1,
                           /*sequence=*/i);
}

void expect_applied_in_slot_order(const std::vector<Slot>& slots,
                                  ProcessId pid) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_EQ(slots[i], static_cast<Slot>(i + 1))
        << "p" << pid << " applied slots out of order at position " << i;
  }
}

TEST(ThreadedSmr, HealthyPipelinedRunAppliesInOrder) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  ThreadedSmrClusterOptions options;
  options.smr.max_batch = 4;
  options.smr.pipeline_depth = 4;
  options.smr.target_commands = 60;
  ThreadedSmrCluster cluster(cfg, options);
  for (std::uint64_t i = 1; i <= 60; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(60, 20s));
  cluster.stop();

  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(cluster.applied_commands(id), 60u) << "p" << id;
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.node(0).store().get("key7"), "val7");
}

TEST(ThreadedSmr, LeaderCrashMidRunSurvivedByWallClockViewChange) {
  // The acceptance scenario: n = 6, f = 1, pipeline_depth = 8, one
  // replica crashed mid-run. With rotate_leaders the crashed process is
  // the initial leader of every sixth slot; those slots stall until their
  // wall-clock view-change timeout while later slots keep deciding, so
  // the reorder buffer must hold decisions and every correct replica must
  // still apply >= 200 commands in strict slot order.
  auto cfg = consensus::QuorumConfig::create(6, 1, 1);
  ThreadedSmrClusterOptions options;
  options.smr.max_batch = 8;
  options.smr.pipeline_depth = 8;
  options.smr.rotate_leaders = true;
  options.smr.target_commands = 240;
  ThreadedSmrCluster cluster(cfg, options);
  for (std::uint64_t i = 1; i <= 240; ++i) cluster.submit(cmd(i));
  cluster.start();

  // Let the pipeline get going, then fail-stop p2 (initial leader of
  // slots 3, 9, 15, ... under rotation) while its slots are in flight.
  ASSERT_TRUE(cluster.wait_applied(24, 30s));
  cluster.crash(2);

  ASSERT_TRUE(cluster.wait_applied(240, 120s))
      << "correct replicas must keep applying through the crash";
  cluster.stop();

  EXPECT_GT(cluster.timers_fired(), 0u)
      << "progress past the crashed leader requires wall-clock timeouts";
  for (ProcessId id = 0; id < 6; ++id) {
    if (cluster.is_faulty(id)) continue;
    EXPECT_GE(cluster.applied_commands(id), 240u) << "p" << id;
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.node(0).store().get("key123"), "val123");
}

TEST(ThreadedSmr, WatermarkGossipBoundsCatchUpRetention) {
  // batch 1 makes many slots; the applied watermark gossiped in wrapped
  // traffic must let every replica prune decided values that the whole
  // cluster already applied, instead of retaining all of them forever.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  ThreadedSmrClusterOptions options;
  options.smr.max_batch = 1;
  options.smr.pipeline_depth = 4;
  options.smr.target_commands = 120;
  ThreadedSmrCluster cluster(cfg, options);
  for (std::uint64_t i = 1; i <= 120; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(120, 60s));
  cluster.stop();

  for (ProcessId id = 0; id < 4; ++id) {
    const auto& engine = cluster.node(id).engine();
    EXPECT_GT(engine.catchup().pruned_count(), 0u)
        << "p" << id << " never pruned";
    EXPECT_LT(engine.catchup().decided_count(),
              static_cast<std::size_t>(engine.highest_started()))
        << "p" << id << " retains every decided value";
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
}

TEST(ThreadedSmr, CrashedReplicaRejoinsViaSnapshotStateTransfer) {
  // Crash -> watermark pin -> snapshot-based rejoin, on real threads and
  // wall-clock time: p3 fail-stops mid-run, the survivors snapshot past
  // its crash point (pruning the slots it would need to replay), and a
  // factory-fresh p3 rejoins mid-run. It can only recover through
  // SNAPSHOT_REQUEST/RESPONSE state transfer, after which it applies in
  // order and converges to the same store digest as everyone else.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  ThreadedSmrClusterOptions options;
  options.smr.max_batch = 1;          // one slot per command: many slots
  options.smr.pipeline_depth = 4;
  options.smr.target_commands = 0;    // keep slots (and gossip) flowing
  options.smr.snapshot_interval = 8;
  options.smr.snapshot_chunk_bytes = 128;  // force multi-chunk transfers
  ThreadedSmrCluster cluster(cfg, options);
  for (std::uint64_t i = 1; i <= 60; ++i) cluster.submit(cmd(i));
  cluster.start();

  ASSERT_TRUE(cluster.wait_applied(20, 60s));
  cluster.crash(3);
  Slot crash_slot = cluster.applied_slots(3).empty()
                        ? 1
                        : cluster.applied_slots(3).back();

  // Survivors work well past the crash point — and past several snapshot
  // boundaries — while p3 is down.
  for (std::uint64_t i = 61; i <= 120; ++i) cluster.submit(cmd(i), 0);
  ASSERT_TRUE(cluster.wait_applied(100, 120s));

  cluster.restart(3);
  ASSERT_TRUE(cluster.wait_applied(120, 120s))
      << "the rejoined replica must catch back up to the whole log";

  // A snapshot alone can satisfy the command count; keep feeding commands
  // until p3 demonstrably applies slots LIVE (post-install) too.
  std::uint64_t next_cmd = 121;
  for (int round = 0;
       round < 1200 && cluster.applied_slots(3).size() < 5; ++round) {
    cluster.submit(cmd(next_cmd++), /*gateway=*/0);
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_GE(cluster.applied_slots(3).size(), 5u)
      << "the rejoined replica never resumed applying live slots";
  ASSERT_TRUE(cluster.wait_applied(next_cmd - 1, 120s));
  cluster.stop();

  // Recovery went through a snapshot install, not slot-by-slot replay.
  EXPECT_GE(cluster.snapshots_installed(3), 1u);
  EXPECT_GE(cluster.node(3).engine().snapshots_installed(), 1u);

  // The fresh incarnation's applies start past the snapshot boundary and
  // run strictly in order (jumps only ever forward, at installs).
  const auto slots = cluster.applied_slots(3);
  ASSERT_FALSE(slots.empty());
  EXPECT_GT(slots.front(), 1u) << "a rejoiner must not re-apply from slot 1";
  for (std::size_t i = 1; i < slots.size(); ++i) {
    ASSERT_GT(slots[i], slots[i - 1]) << "p3 applied out of order";
  }

  // All four replicas — including the rejoined one — agree byte-for-byte.
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.node(3).store().get("key100"), "val100");

  // Retention unpinned: the survivors pruned decided values past p3's
  // crash point while it was down, instead of retaining every decision
  // from the crash onward.
  for (ProcessId id = 0; id < 3; ++id) {
    const auto& catchup = cluster.node(id).engine().catchup();
    EXPECT_GT(catchup.prune_floor(), crash_slot) << "p" << id;
    EXPECT_LT(catchup.decided_count(),
              static_cast<std::size_t>(
                  cluster.node(id).engine().highest_started()))
        << "p" << id;
  }
}

TEST(ThreadedSmr, PreStartCrashIsToleratedFromSlotOne) {
  // Crash-before-start: the faulty process never sends a byte; every slot
  // it would have led view-changes on the wall clock from the beginning.
  auto cfg = consensus::QuorumConfig::create(6, 1, 1);
  ThreadedSmrClusterOptions options;
  options.smr.max_batch = 4;
  options.smr.pipeline_depth = 2;
  options.smr.rotate_leaders = true;
  options.smr.target_commands = 20;
  ThreadedSmrCluster cluster(cfg, options);
  cluster.crash(0);  // initial leader of slot 1
  for (std::uint64_t i = 1; i <= 20; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(20, 60s));
  cluster.stop();
  for (ProcessId id = 1; id < 6; ++id) {
    EXPECT_GE(cluster.applied_commands(id), 20u) << "p" << id;
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
  EXPECT_TRUE(cluster.correct_stores_agree());
}

}  // namespace
}  // namespace fastbft::runtime
