#include <gtest/gtest.h>

#include "adversary/behaviors.hpp"
#include "smr/service.hpp"

/// Byzantine fault injection through the full stack: equivocating leaders,
/// silent processes, promiscuous ackers, laggards — in all cases agreement
/// must hold and (after GST, with a correct leader) liveness too.

namespace fastbft::adversary {
namespace {

using runtime::Cluster;
using runtime::ClusterOptions;

std::vector<Value> inputs_for(std::uint32_t n) {
  std::vector<Value> inputs;
  for (std::uint32_t i = 0; i < n; ++i) {
    inputs.push_back(Value::of_string("input" + std::to_string(i)));
  }
  return inputs;
}

ClusterOptions options_for(consensus::QuorumConfig cfg, std::uint64_t seed = 1) {
  ClusterOptions options;
  options.cfg = cfg;
  options.net.delta = 100;
  options.net.min_delay = 100;
  options.net.seed = seed;
  return options;
}

TEST(Faults, SilentLeaderIsReplaced) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  Cluster cluster(options_for(cfg), inputs_for(4));
  cluster.replace_process(0, silent());
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(500'000));
  EXPECT_TRUE(cluster.agreement());
  auto d = cluster.decision_of(1);
  ASSERT_TRUE(d.has_value());
  EXPECT_GT(d->view, 1u);
}

TEST(Faults, SilentNonLeaderDoesNotSlowFastPath) {
  auto cfg = consensus::QuorumConfig::create(9, 2, 2);
  Cluster cluster(options_for(cfg), inputs_for(9));
  cluster.replace_process(4, silent());
  cluster.replace_process(8, silent());
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(100'000));
  EXPECT_TRUE(cluster.agreement());
  EXPECT_DOUBLE_EQ(cluster.max_decision_delays(), 2.0);
}

TEST(Faults, EquivocatingLeaderCannotBreakAgreement) {
  // f = t = 1, n = 4: leader 0 proposes A to even ids, B to odd ids.
  // No value can reach the fast quorum of 3 among correct processes alone
  // (2 correct acks for A, 1 for B at most)... except the leader's own
  // acks push one side through — either way agreement must hold.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto cfg = consensus::QuorumConfig::create(4, 1, 1);
    Cluster cluster(options_for(cfg, seed), inputs_for(4));
    cluster.replace_process(
        0, equivocating_leader(Value::of_string("A"), Value::of_string("B")));
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all_correct_decided(2'000'000))
        << "seed=" << seed;
    EXPECT_TRUE(cluster.agreement()) << "seed=" << seed;
  }
}

TEST(Faults, EquivocatingLeaderLargerCluster) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto cfg = consensus::QuorumConfig::create(9, 2, 2);
    Cluster cluster(options_for(cfg, seed), inputs_for(9));
    cluster.replace_process(
        0, equivocating_leader(Value::of_string("A"), Value::of_string("B")));
    cluster.replace_process(5, promiscuous_acker());
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all_correct_decided(2'000'000))
        << "seed=" << seed;
    EXPECT_TRUE(cluster.agreement()) << "seed=" << seed;
  }
}

TEST(Faults, EquivocationSurvivesIntoViewChangeSafely) {
  // Deterministic lock-step variant: the equivocating leader splits the
  // cluster; whichever value gathers a fast quorum (if any) must be the
  // value selected in the next view.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  Cluster cluster(options_for(cfg), inputs_for(4));
  cluster.replace_process(
      0, equivocating_leader(Value::of_string("A"), Value::of_string("B")));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(2'000'000));
  EXPECT_TRUE(cluster.agreement());
  // With even/odd split: p2 acks A; p1, p3 ack B; leader acks both.
  // B can reach 3 acks (p1, p3, p0), A only 2 — decided value, if fast,
  // must be B; after a view change both A and B are possible but all
  // correct processes agree. (Checked by agreement() above; here we also
  // sanity-check decisions are non-empty and from {A, B, inputs}.)
  for (const auto& d : cluster.decisions()) {
    EXPECT_FALSE(d.value.empty());
  }
}

TEST(Faults, PromiscuousAckerAloneIsHarmless) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  Cluster cluster(options_for(cfg), inputs_for(4));
  cluster.replace_process(2, promiscuous_acker());
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(500'000));
  EXPECT_TRUE(cluster.agreement());
  EXPECT_DOUBLE_EQ(cluster.max_decision_delays(), 2.0);
}

TEST(Faults, LaggardEventuallyDecides) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  Cluster cluster(options_for(cfg), inputs_for(4));
  cluster.replace_process(3, laggard(1'000));
  cluster.start();
  // The three punctual processes decide fast...
  ASSERT_TRUE(cluster.run_until_all_correct_decided(100'000));
  EXPECT_TRUE(cluster.agreement());
  // ...and the laggard, although marked faulty for quorum accounting,
  // also reaches the same decision eventually (it runs the honest code).
  cluster.run_until(200'000);
}

TEST(Faults, CrashJustBeforeProposalStillLive) {
  // Leader crashes 1 tick after start: its proposal may be partially out.
  auto cfg = consensus::QuorumConfig::create(9, 2, 2);
  for (TimePoint crash_time : {1, 50, 99, 100, 101, 150}) {
    Cluster cluster(options_for(cfg, static_cast<std::uint64_t>(crash_time)),
                    inputs_for(9));
    cluster.crash_at(0, crash_time);
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all_correct_decided(5'000'000))
        << "crash at " << crash_time;
    EXPECT_TRUE(cluster.agreement()) << "crash at " << crash_time;
  }
}

TEST(Faults, MaxFaultsMixedKinds) {
  // f = 3, t = 1 -> n = 3*3 + 2 - 1 = 10; three faults of different kinds.
  auto cfg = consensus::QuorumConfig::create(10, 3, 1);
  Cluster cluster(options_for(cfg), inputs_for(10));
  cluster.replace_process(2, silent());
  cluster.replace_process(5, promiscuous_acker());
  cluster.crash_at(8, 250);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(5'000'000));
  EXPECT_TRUE(cluster.agreement());
}

TEST(FaultSweep, RandomByzantineMixNeverBreaksAgreement) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto cfg = consensus::QuorumConfig::create(9, 2, 2);
    ClusterOptions options = options_for(cfg, seed);
    options.net.min_delay = 20;
    options.net.gst = 3'000;
    options.net.pre_gst_max_delay = 2'000;
    Cluster cluster(options, inputs_for(9));

    sim::Rng rng(seed * 31337);
    // Two faults, kinds chosen at random.
    ProcessId ids[2] = {static_cast<ProcessId>(rng.next_below(9)), 0};
    do {
      ids[1] = static_cast<ProcessId>(rng.next_below(9));
    } while (ids[1] == ids[0]);
    for (ProcessId id : ids) {
      switch (rng.next_below(4)) {
        case 0: cluster.replace_process(id, silent()); break;
        case 1: cluster.replace_process(id, promiscuous_acker()); break;
        case 2:
          cluster.replace_process(
              id, equivocating_leader(Value::of_string("E1"),
                                      Value::of_string("E2")));
          break;
        default:
          cluster.crash_at(id, static_cast<TimePoint>(rng.next_below(2'000)));
      }
    }
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all_correct_decided(30'000'000))
        << "seed=" << seed;
    EXPECT_TRUE(cluster.agreement()) << "seed=" << seed;
  }
}

// --- Pipelined SMR under faults ---------------------------------------------------

TEST(Faults, PipelinedSmrSurvivesSilentInitialLeader) {
  // A silent p0 never proposes (crashed before start: a replica that
  // never sends looks the same to its peers). With rotate_leaders + depth
  // 4, p0 leads the view-1 of slots 1, 5, 9, ... — those slots stall
  // until their view change while slots led by p1..p3 decide
  // immediately, so the engine must hold out-of-order decisions (reorder
  // high-water > 0) and the log must still apply strictly in slot order
  // on every correct replica: a chain of CAS commands on one key, each
  // valid only after its predecessor, ends at its last value only then.
  constexpr std::uint64_t kCommands = 8;
  smr::ServiceConfig config;
  config.cluster = consensus::QuorumConfig::create(4, 1, 1);
  config.sim_net = options_for(config.cluster).net;
  config.smr.max_batch = 2;
  config.smr.pipeline_depth = 4;
  config.smr.rotate_leaders = true;
  auto service = smr::make_sim_service(config);
  service->crash(0);
  service->start();
  service->sim_network()->scheduler().schedule_at(0, [&] {
    service->replica(1).submit(smr::Command::put("chain", "v1", 6, 1));
    for (std::uint64_t i = 2; i <= kCommands; ++i) {
      service->replica(1).submit(smr::Command::cas(
          "chain", "v" + std::to_string(i - 1), "v" + std::to_string(i), 6,
          i));
    }
  });
  service->await_applied(kCommands, std::chrono::milliseconds(5000));

  for (ProcessId id = 1; id < 4; ++id) {
    const smr::SmrNode& node = service->replica(id);
    EXPECT_EQ(node.applied_commands(), kCommands) << "p" << id;
    EXPECT_EQ(node.store().state_digest(),
              service->replica(1).store().state_digest())
        << "p" << id;
    EXPECT_GE(node.engine().reorder_high_water(), 1u)
        << "slots past the silent leader's must not have waited for it";
    EXPECT_EQ(node.store().get("chain"), "v" + std::to_string(kCommands))
        << "p" << id << " applied out of slot order";
  }
}

}  // namespace
}  // namespace fastbft::adversary
