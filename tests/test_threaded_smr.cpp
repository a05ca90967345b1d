#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "smr/service.hpp"

/// The pipelined SMR engine over real OS threads and wall-clock time: the
/// identical engine code that runs on the deterministic simulator, driven
/// through engine::LoopHost by smr::Service's threaded backend. These
/// tests cover the properties that need a clock to even exist on the
/// threaded runtime — wall-clock view change under a crashed leader, a
/// deep pipeline, and watermark-based catch-up GC. In-slot-order apply
/// itself is SlotMux's reorder buffer, checked under out-of-order
/// decisions by the SmrPipelined simulator tests.

namespace fastbft::smr {
namespace {

using namespace std::chrono_literals;

Command cmd(std::uint64_t i) {
  return Command::put("key" + std::to_string(i), "val" + std::to_string(i),
                      /*client=*/1, /*sequence=*/i);
}

ServiceConfig threaded_config(std::uint32_t n, std::uint32_t max_batch,
                              std::uint32_t depth, std::uint64_t target) {
  auto config = ServiceConfig{}
                    .with_cluster(n, 1, 1)
                    .with_batch(max_batch)
                    .with_pipeline_depth(depth);
  config.smr.target_commands = target;
  return config;
}

/// Pre-start injection of commands 1..count into every replica's pending
/// queue, so the first window's proposals already carry real batches.
void inject(Service& service, std::uint64_t count) {
  for (std::uint64_t i = 1; i <= count; ++i) {
    Bytes payload = SmrNode::encode_request(cmd(i));
    for (ProcessId id = 0; id < service.quorum().n; ++id) {
      service.replica(id).on_message(0, payload);
    }
  }
}

TEST(ThreadedSmr, HealthyPipelinedRunAppliesInOrder) {
  auto service = make_threaded_service(threaded_config(4, 4, 4, 60));
  inject(*service, 60);
  service->start();
  ASSERT_TRUE(service->await_applied(60, 20s));
  service->stop();

  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(service->applied_commands(id), 60u) << "p" << id;
  }
  EXPECT_TRUE(service->stores_agree());
  EXPECT_EQ(service->replica(0).store().get("key7"), "val7");
}

TEST(ThreadedSmr, LeaderCrashMidRunSurvivedByWallClockViewChange) {
  // The acceptance scenario: n = 6, f = 1, pipeline_depth = 8, one
  // replica crashed mid-run. With rotate_leaders the crashed process is
  // the initial leader of every sixth slot; those slots stall until their
  // wall-clock view-change timeout while later slots keep deciding, so
  // the reorder buffer must hold decisions and every correct replica must
  // still apply all 240 commands.
  auto service = make_threaded_service(
      threaded_config(6, 8, 8, 240).with_rotating_leaders());
  inject(*service, 240);
  service->start();

  // Let the pipeline get going, then fail-stop p2 (initial leader of
  // slots 3, 9, 15, ... under rotation) while its slots are in flight.
  ASSERT_TRUE(service->await_applied(24, 30s));
  service->crash(2);

  ASSERT_TRUE(service->await_applied(240, 120s))
      << "correct replicas must keep applying through the crash";
  service->stop();

  for (ProcessId id = 0; id < 6; ++id) {
    if (service->is_faulty(id)) continue;
    EXPECT_GE(service->applied_commands(id), 240u) << "p" << id;
  }
  EXPECT_TRUE(service->stores_agree());
  EXPECT_EQ(service->replica(0).store().get("key123"), "val123");
}

TEST(ThreadedSmr, WatermarkGossipBoundsCatchUpRetention) {
  // batch 1 makes many slots; the applied watermark gossiped in wrapped
  // traffic must let every replica prune decided values that the whole
  // cluster already applied, instead of retaining all of them forever.
  auto service = make_threaded_service(threaded_config(4, 1, 4, 120));
  inject(*service, 120);
  service->start();
  ASSERT_TRUE(service->await_applied(120, 60s));
  service->stop();

  for (ProcessId id = 0; id < 4; ++id) {
    const auto& engine = service->replica(id).engine();
    EXPECT_GT(engine.catchup().pruned_count(), 0u)
        << "p" << id << " never pruned";
    EXPECT_LT(engine.catchup().decided_count(),
              static_cast<std::size_t>(engine.highest_started()))
        << "p" << id << " retains every decided value";
  }
}

TEST(ThreadedSmr, CrashedReplicaRejoinsViaSnapshotStateTransfer) {
  // Crash -> watermark pin -> snapshot-based rejoin, on real threads and
  // wall-clock time: p3 fail-stops mid-run, the survivors snapshot past
  // its crash point (pruning the slots it would need to replay), and a
  // factory-fresh p3 rejoins mid-run. It can only recover through
  // SNAPSHOT_REQUEST/RESPONSE state transfer, after which it applies
  // live and converges to the same store digest as everyone else.
  // One slot per command makes many slots; no target keeps slots (and
  // gossip) flowing for the rejoiner.
  auto config = threaded_config(4, 1, 4, 0).with_snapshots(8);
  config.smr.snapshot_chunk_bytes = 128;  // force multi-chunk transfers
  auto service = make_threaded_service(config);
  inject(*service, 60);
  service->start();
  ClientSession& session = service->session(0);
  auto put = [&session](std::uint64_t i) {
    session.put("key" + std::to_string(i), "val" + std::to_string(i));
  };

  ASSERT_TRUE(service->await_applied(20, 60s));
  service->crash(3);
  const Slot crash_slot = service->engine_stats(3).apply_watermark - 1;

  // Survivors work well past the crash point — and past several snapshot
  // boundaries — while p3 is down.
  for (std::uint64_t i = 61; i <= 120; ++i) put(i);
  ASSERT_TRUE(service->await_applied(100, 120s));

  service->restart(3);
  ASSERT_TRUE(service->await_applied(120, 120s))
      << "the rejoined replica must catch back up to the whole log";

  // A snapshot alone can satisfy the command count; keep feeding commands
  // until p3 demonstrably applies slots LIVE (post-install) too.
  std::uint64_t next_cmd = 121;
  for (int round = 0;
       round < 1200 && service->engine_stats(3).slots_applied < 5; ++round) {
    put(next_cmd++);
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_GE(service->engine_stats(3).slots_applied, 5u)
      << "the rejoined replica never resumed applying live slots";
  ASSERT_TRUE(service->await_applied(next_cmd - 1, 120s));
  service->stop();

  // Recovery went through a snapshot install, not slot-by-slot replay:
  // the fresh incarnation applied fewer slots itself than its log holds.
  const auto& rejoined = service->replica(3).engine();
  EXPECT_GE(rejoined.snapshots_installed(), 1u);
  EXPECT_LT(rejoined.slots_applied(), rejoined.apply_watermark() - 1)
      << "a rejoiner must not re-apply from slot 1";

  // All four replicas — including the rejoined one — agree byte-for-byte.
  EXPECT_TRUE(service->stores_agree());
  EXPECT_EQ(service->replica(3).store().get("key100"), "val100");

  // Retention unpinned: the survivors pruned decided values past p3's
  // crash point while it was down, instead of retaining every decision
  // from the crash onward.
  for (ProcessId id = 0; id < 3; ++id) {
    const auto& engine = service->replica(id).engine();
    EXPECT_GT(engine.catchup().prune_floor(), crash_slot) << "p" << id;
    EXPECT_LT(engine.catchup().decided_count(),
              static_cast<std::size_t>(engine.highest_started()))
        << "p" << id;
  }
}

TEST(ThreadedSmr, PreStartCrashIsToleratedFromSlotOne) {
  // Crash-before-start: the faulty process never sends a byte; every slot
  // it would have led view-changes on the wall clock from the beginning.
  auto service = make_threaded_service(
      threaded_config(6, 4, 2, 20).with_rotating_leaders());
  service->crash(0);  // initial leader of slot 1
  inject(*service, 20);
  service->start();
  ASSERT_TRUE(service->await_applied(20, 60s));
  service->stop();
  for (ProcessId id = 1; id < 6; ++id) {
    EXPECT_GE(service->applied_commands(id), 20u) << "p" << id;
  }
  EXPECT_TRUE(service->stores_agree());
}

}  // namespace
}  // namespace fastbft::smr
