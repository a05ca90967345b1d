#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "smr/service.hpp"
#include "smr/shard.hpp"

/// Sharded multi-group SMR (PR 6), exercised through the client facade
/// with the SAME test bodies on both runtimes. A replica hosts one
/// consensus engine per group; sessions route each request to its key's
/// hash-assigned shard. These tests pin down the contract:
///
///  * routing determinism — every session and every replica computes the
///    same shard for a key, so data written through one session is
///    readable through any other;
///  * per-shard linearizability — concurrent sessions racing on one key
///    serialize through that key's group log (exactly one CAS winner);
///  * availability — one replica crashing and rejoining never stops the
///    shards (all groups span all replicas; quorums survive f crashes);
///  * bounded failure — when a quorum is gone entirely, per-request
///    deadlines complete futures with Reply::Status::Timeout instead of
///    failing over forever.

namespace fastbft::smr {
namespace {

using namespace std::chrono_literals;

enum class Backend { kSim, kThreaded };

std::unique_ptr<Service> make_service(Backend backend,
                                      const ServiceConfig& config) {
  return backend == Backend::kSim ? make_sim_service(config)
                                  : make_threaded_service(config);
}

class ShardedApi : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ShardedApi,
                         ::testing::Values(Backend::kSim, Backend::kThreaded),
                         [](const auto& info) {
                           return info.param == Backend::kSim ? "Sim"
                                                              : "Threaded";
                         });

Reply must_complete(Service& service, Future<Reply> future) {
  EXPECT_TRUE(service.await(future, 20'000ms)) << "request never completed";
  return future.value();
}

// --- Shard map ----------------------------------------------------------------

TEST(ShardMap, DeterministicAndIndependentOfProcessState) {
  // The map is pure code on the key bytes (FNV-1a), NOT std::hash: the
  // same key must land in the same group in every process — clients and
  // replicas each compute it locally and must agree.
  EXPECT_EQ(shard_of("account:42", 4), shard_of("account:42", 4));
  EXPECT_EQ(shard_hash("account:42"),
            shard_hash(std::string("account:") + "42"));
  // Golden values pin the wire-compatibility of the map itself: changing
  // the hash silently re-partitions every deployed keyspace.
  EXPECT_EQ(shard_hash(""), 14695981039346656037ull);
  EXPECT_EQ(shard_of("", 1), 0u);
  EXPECT_EQ(shard_of("anything", 0), 0u) << "degenerate S clamps to one";

  // All shards are reachable: a small key population covers every group.
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    std::set<GroupId> seen;
    for (int i = 0; i < 256; ++i) {
      GroupId g = shard_of("key" + std::to_string(i), shards);
      ASSERT_LT(g, shards);
      seen.insert(g);
    }
    EXPECT_EQ(seen.size(), shards) << "S=" << shards;
  }
}

// --- Routing determinism across sessions --------------------------------------

TEST_P(ShardedApi, WritesThroughOneSessionAreReadableThroughAnother) {
  // If any two parties disagreed on a key's owning group, the write and
  // the read would hit different logs and the read would miss. Two
  // independent sessions must see each other's writes for keys in every
  // shard.
  constexpr std::uint32_t kShards = 4;
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(2)
                    .with_shards(kShards)
                    .with_batch(4)
                    .with_pipeline_depth(2)
                    .with_seed(23);
  auto service = make_service(GetParam(), config);
  service->start();

  // One key per shard, discovered through the shared map.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < kShards; ++i) {
    std::string key = "route" + std::to_string(i);
    if (shard_of(key, kShards) == keys.size()) keys.push_back(key);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Reply put = must_complete(
        *service, service->session(0).put(keys[i], "v" + std::to_string(i)));
    EXPECT_TRUE(put.result.ok);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Reply read = must_complete(*service, service->session(1).get(keys[i]));
    EXPECT_TRUE(read.result.found) << keys[i] << " routed to the wrong shard";
    EXPECT_EQ(read.result.value, "v" + std::to_string(i));
  }

  // Multi-key read fans out client-side and reassembles in keys order.
  auto batch = service->session(1).mget(keys);
  ASSERT_TRUE(service->run_until([&] { return batch.ready(); }, 20'000ms));
  const std::vector<Reply>& replies = batch.value();
  ASSERT_EQ(replies.size(), keys.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_TRUE(replies[i].ok());
    EXPECT_EQ(replies[i].result.value, "v" + std::to_string(i));
  }

  // Reads are logged commands too: 4 puts + 4 gets + 4 mget reads.
  EXPECT_TRUE(service->await_applied(3 * kShards, 20'000ms));
  service->stop();
  EXPECT_TRUE(service->stores_agree());
}

// --- Per-shard linearizability under concurrent sessions ----------------------

TEST_P(ShardedApi, ConcurrentCasOnOneKeyHasExactlyOneWinner) {
  // Two sessions race a compare-and-swap on the SAME key: both carry the
  // same expectation, so the key's group log must serialize them —
  // exactly one wins, and a subsequent read returns the winner's value.
  // Meanwhile each session also writes its own keys in other shards; the
  // race must not disturb them.
  constexpr std::uint32_t kShards = 2;
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(2)
                    .with_shards(kShards)
                    .with_batch(4)
                    .with_pipeline_depth(2)
                    .with_seed(29);
  auto service = make_service(GetParam(), config);
  service->start();

  Reply seed = must_complete(*service, service->session(0).put("ctr", "0"));
  ASSERT_TRUE(seed.result.ok);

  auto cas_a = service->session(0).cas("ctr", "0", "A");
  auto cas_b = service->session(1).cas("ctr", "0", "B");
  auto side_a = service->session(0).put("side-a", "1");
  auto side_b = service->session(1).put("side-b", "2");
  ASSERT_TRUE(service->run_until(
      [&] {
        return cas_a.ready() && cas_b.ready() && side_a.ready() &&
               side_b.ready();
      },
      20'000ms));

  const bool a_won = cas_a.value().result.ok;
  const bool b_won = cas_b.value().result.ok;
  EXPECT_NE(a_won, b_won) << "a linearizable register has one CAS winner";
  Reply read = must_complete(*service, service->session(1).get("ctr"));
  EXPECT_EQ(read.result.value, a_won ? "A" : "B");
  EXPECT_TRUE(side_a.value().result.ok);
  EXPECT_TRUE(side_b.value().result.ok);

  // 1 seed + 2 CAS attempts + 2 side puts + 1 read = 6 distinct commands,
  // applied at-most-once on every replica regardless of shard count.
  EXPECT_TRUE(service->await_applied(6, 20'000ms));
  service->stop();
  for (ProcessId id = 0; id < service->quorum().n; ++id) {
    EXPECT_EQ(service->applied_commands(id), 6u) << "p" << id;
  }
  EXPECT_TRUE(service->stores_agree());
}

// --- Crash -> rejoin while shards keep serving --------------------------------

TEST_P(ShardedApi, ReplicaCrashAndRejoinWhileAllShardsServe) {
  // Every group spans all replicas, so one replica crashing leaves every
  // shard a live quorum: requests to all shards must keep completing
  // while it is down. After it rejoins, per-group catch-up (snapshots +
  // decided-claim replay) must converge its stores.
  constexpr std::uint32_t kShards = 4;
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(1)
                    .with_shards(kShards)
                    .with_batch(4)
                    .with_pipeline_depth(2)
                    .with_snapshots(4)
                    .with_seed(31);
  auto service = make_service(GetParam(), config);
  service->start();
  ClientSession& session = service->session(0);

  std::vector<std::string> keys;
  for (int i = 0; keys.size() < kShards; ++i) {
    std::string key = "cr" + std::to_string(i);
    if (shard_of(key, kShards) == keys.size()) keys.push_back(key);
  }

  for (const auto& key : keys) {
    EXPECT_TRUE(must_complete(*service, session.put(key, "before")).result.ok);
  }

  service->crash(2);
  for (const auto& key : keys) {
    Reply reply = must_complete(*service, session.put(key, "during"));
    EXPECT_TRUE(reply.result.ok)
        << key << " stalled while one replica was down";
  }

  service->restart(2);
  for (const auto& key : keys) {
    EXPECT_TRUE(must_complete(*service, session.put(key, "after")).result.ok);
  }
  Reply probe = must_complete(*service, session.get(keys[0]));
  EXPECT_EQ(probe.result.value, "after");

  // 3 writes per shard + 1 read; the rejoined replica must catch up on
  // every group before the digest audit.
  EXPECT_TRUE(service->await_applied(3 * kShards + 1, 30'000ms));
  service->stop();
  EXPECT_TRUE(service->stores_agree());
}

// --- Deadlines against a dead quorum ------------------------------------------

TEST(ShardedDeadline, CompletesWithTimeoutWhenQuorumIsGone) {
  // Regression for unbounded retries: with a whole quorum crashed no
  // retry can ever complete the request, and before deadlines
  // the future just hung. The per-request budget must fire, complete the
  // future with Status::Timeout, free the window slot, and leave healthy
  // traffic from before the crash untouched.
  //
  // Threaded runtime only: exceeding the fault bound (f + 1 crashes) is
  // exactly the regime the simulator's crash_now() asserts against, while
  // the threaded cluster allows it for precisely this kind of test.
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(1)
                    .with_shards(2)
                    .with_request_timeout(20'000)  // µs; several rotations...
                    .with_deadline(90'000)         // ...inside one budget
                    .with_seed(37);
  auto service = make_threaded_service(config);
  service->start();
  ClientSession& session = service->session(0);

  Reply healthy = must_complete(*service, session.put("warm", "up"));
  EXPECT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.timed_out());

  // f + 1 = 2 crashes out of n = 4: no group has a commit quorum left.
  service->crash(0);
  service->crash(1);

  auto doomed = session.put("doomed", "never");
  ASSERT_TRUE(service->await(doomed, 20'000ms))
      << "deadline never completed the future";
  const Reply& reply = doomed.value();
  EXPECT_TRUE(reply.timed_out());
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status, Reply::Status::Timeout);
  EXPECT_EQ(reply.op, OpKind::Put);
  EXPECT_GE(session.deadline_timeouts(), 1u);
  EXPECT_GE(session.failovers(), 1u)
      << "the budget must ride through at least one failover first";
  EXPECT_EQ(session.in_flight(), 0u) << "timed-out request leaked its slot";
  service->stop();
}

}  // namespace
}  // namespace fastbft::smr
