#include <gtest/gtest.h>

#include "net/tags.hpp"
#include "smr/service.hpp"

/// SMR layer: command/batch codecs, the KV state machine, and full
/// replicated-log executions (fault-free, with crashes, with laggard
/// catch-up).

namespace fastbft::smr {
namespace {

// --- Command / batch codecs -----------------------------------------------------

TEST(Command, RoundtripAllKinds) {
  for (const Command& cmd :
       {Command::put("k", "v", 7, 3), Command::del("k", 7, 4),
        Command::noop()}) {
    auto decoded = Command::from_value(cmd.to_value());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, cmd);
  }
}

TEST(Command, RejectsGarbage) {
  EXPECT_FALSE(Command::from_value(Value::of_string("junk")).has_value());
  EXPECT_FALSE(Command::from_value(Value()).has_value());
}

TEST(Command, ToStringReadable) {
  EXPECT_EQ(Command::put("a", "1").to_string(), "PUT a=1");
  EXPECT_EQ(Command::del("a").to_string(), "DEL a");
  EXPECT_EQ(Command::noop().to_string(), "NOOP");
}

TEST(Batch, Roundtrip) {
  std::vector<Command> batch = {Command::put("a", "1", 1, 1),
                                Command::del("b", 1, 2), Command::noop()};
  auto decoded = decode_batch(encode_batch(batch));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, batch);
}

TEST(Batch, RejectsMalformed) {
  EXPECT_FALSE(decode_batch(Value()).has_value());
  EXPECT_FALSE(decode_batch(Value::of_string("xx")).has_value());
  Encoder enc;
  enc.u32(0);  // empty batch claim
  EXPECT_FALSE(decode_batch(Value(std::move(enc).take())).has_value());
}

// --- KvStore ----------------------------------------------------------------------

TEST(KvStoreTest, PutGetDel) {
  KvStore store;
  store.apply(Command::put("k1", "v1"));
  store.apply(Command::put("k2", "v2"));
  EXPECT_EQ(store.get("k1"), "v1");
  store.apply(Command::put("k1", "v1b"));
  EXPECT_EQ(store.get("k1"), "v1b");
  store.apply(Command::del("k2"));
  EXPECT_FALSE(store.get("k2").has_value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.applied_count(), 4u);
}

TEST(KvStoreTest, ApplyWithAMovedValueMatchesACopy) {
  // apply(cmd, value) takes the new value separately so the SMR shell can
  // move a decided put's value into the store; the outcome is the same as
  // apply(cmd).
  KvStore copied, moved;
  std::vector<Command> log{Command::put("k", std::string(100, 'a')),
                           Command::cas("k", std::string(100, 'a'), "b"),
                           Command::cas("k", "stale", "c"),
                           Command::put("j", "short"), Command::del("j")};
  for (Command cmd : log) {
    ExecResult a = copied.apply(cmd);
    ExecResult b = moved.apply(cmd, std::move(cmd.value));
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.value, b.value);
  }
  EXPECT_EQ(moved.get("k"), std::optional<std::string>("b"));
  EXPECT_EQ(moved.state_digest(), copied.state_digest());
}

TEST(KvStoreTest, DigestReflectsStateAndHistoryLength) {
  KvStore a, b;
  a.apply(Command::put("k", "v"));
  b.apply(Command::put("k", "v"));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  b.apply(Command::noop());
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(KvStoreTest, SerializeRestoreRoundtrip) {
  KvStore a;
  a.apply(Command::put("k1", "v1"));
  a.apply(Command::put("k2", "v2"));
  a.apply(Command::del("k1"));

  KvStore b;
  b.apply(Command::put("junk", "state"));  // must be fully replaced
  ASSERT_TRUE(b.restore(a.serialize()));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.get("k2"), "v2");
  EXPECT_FALSE(b.get("junk").has_value());
  EXPECT_EQ(b.applied_count(), 3u);

  // Malformed images are rejected and leave the store untouched.
  Bytes truncated = a.serialize();
  truncated.pop_back();
  auto digest = b.state_digest();
  EXPECT_FALSE(b.restore(truncated));
  EXPECT_EQ(b.state_digest(), digest);
}

TEST(KvStore, FreezeIsUnaffectedByLaterWrites) {
  KvStore store;
  store.apply(Command::put("a", "1"));
  store.apply(Command::put("b", "2"));
  store.apply(Command::put("c", "3"));
  const Bytes at_capture = store.serialize();
  const KvStore::Frozen frozen = store.freeze();
  EXPECT_EQ(frozen.serialize(), at_capture);

  // Every kind of write on the live store: overwrite, delete, a CAS that
  // replaces a value, a failed CAS, a new key — then a wholesale restore.
  store.apply(Command::put("a", "1-new"));
  store.apply(Command::del("b"));
  store.apply(Command::cas("c", "3", "3-new"));
  store.apply(Command::cas("c", "wrong", "never"));
  store.apply(Command::put("d", "4"));
  ASSERT_NE(store.serialize(), at_capture);
  EXPECT_EQ(frozen.serialize(), at_capture);

  KvStore other;
  other.apply(Command::put("z", "26"));
  ASSERT_TRUE(store.restore(other.serialize()));
  EXPECT_EQ(store.get("z"), "26");
  EXPECT_EQ(frozen.serialize(), at_capture);

  // The streamed digest hashes exactly the canonical encoding.
  EXPECT_EQ(store.state_digest(), crypto::sha256(store.serialize()));
}

// --- Snapshot codec --------------------------------------------------------------

TEST(SnapshotTest, EncodeDecodeRoundtripAndDigest) {
  KvStore store;
  store.apply(Command::put("a", "1"));
  store.apply(Command::put("b", "2"));

  Snapshot snap;
  snap.applied_below = 17;
  snap.applied_commands = 2;
  snap.kv_state = store.serialize();
  snap.applied_ids = {{{1, 1}, 15}, {{1, 2}, 16}};

  auto decoded = Snapshot::decode(snap.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, snap);
  EXPECT_EQ(decoded->digest(), snap.digest());

  KvStore restored;
  ASSERT_TRUE(restored.restore(decoded->kv_state));
  EXPECT_EQ(restored.state_digest(), store.state_digest());
}

TEST(SnapshotTest, RejectsMalformed) {
  EXPECT_FALSE(Snapshot::decode(Bytes{}).has_value());
  EXPECT_FALSE(Snapshot::decode(to_bytes("garbage")).has_value());
  Snapshot snap;
  snap.applied_below = 3;
  Bytes trailing = snap.encode();
  trailing.push_back(0x00);
  EXPECT_FALSE(Snapshot::decode(trailing).has_value());
}

// --- Replicated executions ----------------------------------------------------------

using namespace std::chrono_literals;

/// A simulated cluster on lock-step Delta = 100 links; min_delay < 100
/// adds delivery jitter.
ServiceConfig sim_config(consensus::QuorumConfig cfg, SmrOptions smr_options,
                         std::uint64_t seed = 1, Duration min_delay = 100) {
  ServiceConfig config;
  config.cluster = cfg;
  config.smr = std::move(smr_options);
  config.sim_net.delta = 100;
  config.sim_net.min_delay = min_delay;
  config.sim_net.seed = seed;
  return config;
}

/// Runs `fn` at simulated time `at`; scheduled after start(), a time-0
/// event runs after the replicas' own start events.
void at_time(Service& service, TimePoint at, std::function<void()> fn) {
  service.sim_network()->scheduler().schedule_at(at, std::move(fn));
}

/// Drives an on-demand-window cluster until nothing is left to happen: no
/// message in flight, no timer armed.
bool run_until_quiet(Service& service, std::chrono::milliseconds budget) {
  const sim::Scheduler& sched = service.sim_network()->scheduler();
  return service.run_until([&sched] { return sched.pending_events() == 0; },
                           budget);
}

/// `count` commands on one key, each valid only after its predecessor:
/// command 1 puts "v1", command i is cas(key, "v{i-1}", "v{i}"). The key
/// ends at "v{count}" only if a replica applied all of them in order.
std::vector<Command> cas_chain(std::uint64_t count) {
  std::vector<Command> chain{Command::put("chain", "v1", 1, 1)};
  for (std::uint64_t i = 2; i <= count; ++i) {
    chain.push_back(Command::cas("chain", "v" + std::to_string(i - 1),
                                 "v" + std::to_string(i), 1, i));
  }
  return chain;
}

/// Injection into every replica's pending queue before the first event
/// runs, so every leader proposes the commands in this order (an
/// SMR_REQUEST broadcast minus the wire hop, whose jitter could reorder
/// them).
void inject(Service& service, const std::vector<Command>& commands) {
  for (const Command& cmd : commands) {
    Bytes payload = SmrNode::encode_request(cmd);
    for (ProcessId id = 0; id < service.quorum().n; ++id) {
      service.replica(id).on_message(0, payload);
    }
  }
}

TEST(Smr, ReplicatesCommandsAcrossAllNodes) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 4;
  auto service = make_sim_service(sim_config(cfg, smr_options));
  service->start();

  // Submit 10 commands through node 0 (requests broadcast to everyone).
  at_time(*service, 0, [&] {
    for (int i = 1; i <= 10; ++i) {
      service->replica(0).submit(Command::put("key" + std::to_string(i),
                                              "val" + std::to_string(i), 1,
                                              static_cast<std::uint64_t>(i)));
    }
  });
  ASSERT_TRUE(service->await_applied(10, 200ms));

  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), 10u) << "p" << id;
    EXPECT_EQ(service->replica(id).store().get("key7"), "val7") << "p" << id;
  }
  // Replica state machines must be byte-identical.
  auto digest0 = service->replica(0).store().state_digest();
  for (ProcessId id = 1; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).store().state_digest(), digest0)
        << "p" << id;
  }
}

TEST(Smr, BatchingReducesSlotCount) {
  auto run_with_batch = [](std::uint32_t batch) {
    auto cfg = consensus::QuorumConfig::create(4, 1, 1);
    SmrOptions smr_options;
    smr_options.max_batch = batch;
    auto service = make_sim_service(sim_config(cfg, smr_options));
    service->start();
    at_time(*service, 0, [&] {
      for (int i = 1; i <= 12; ++i) {
        service->replica(1).submit(Command::put(
            "k" + std::to_string(i), "v", 2, static_cast<std::uint64_t>(i)));
      }
    });
    service->await_applied(12, 500ms);
    EXPECT_EQ(service->replica(0).applied_commands(), 12u);
    return service->replica(0).current_slot();
  };
  Slot slots_b1 = run_with_batch(1);
  Slot slots_b6 = run_with_batch(6);
  EXPECT_GT(slots_b1, slots_b6);
}

TEST(Smr, DuplicateSubmissionsAppliedOnce) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  auto service = make_sim_service(sim_config(cfg, SmrOptions{}));
  service->start();
  at_time(*service, 0, [&] {
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 1; i <= 3; ++i) {
        service->replica(static_cast<ProcessId>(rep))
            .submit(Command::put("k" + std::to_string(i), "v", 9,
                                 static_cast<std::uint64_t>(i)));
      }
    }
  });
  service->await_applied(3, 200ms);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), 3u) << "p" << id;
  }
}

TEST(Smr, SurvivesNonLeaderCrash) {
  auto cfg = consensus::QuorumConfig::create(7, 2, 1);
  auto service = make_sim_service(sim_config(cfg, SmrOptions{}));
  service->start();
  at_time(*service, 450, [&] {
    service->crash(5);
    service->crash(6);
  });
  at_time(*service, 0, [&] {
    for (int i = 1; i <= 6; ++i) {
      service->replica(0).submit(Command::put("k" + std::to_string(i),
                                              "v" + std::to_string(i), 1,
                                              static_cast<std::uint64_t>(i)));
    }
  });
  service->await_applied(6, 2000ms);
  for (ProcessId id = 0; id < 5; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), 6u) << "p" << id;
    EXPECT_EQ(service->replica(id).store().get("k3"), "v3") << "p" << id;
  }
}

TEST(Smr, LeaderCrashMidStream) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  // Pin the fixed-leader regime: this test's crash schedule assumes p0
  // leads view 1 of every slot (multi-group runs rotate by default).
  smr_options.rotate_leaders = false;
  auto service = make_sim_service(sim_config(cfg, smr_options));
  service->start();
  at_time(*service, 350, [&] { service->crash(0); });  // p0 leads view 1
                                                       // of every slot
  at_time(*service, 0, [&] {
    for (int i = 1; i <= 5; ++i) {
      service->replica(1).submit(Command::put(
          "k" + std::to_string(i), "v", 3, static_cast<std::uint64_t>(i)));
    }
  });
  service->await_applied(5, 5000ms);
  for (ProcessId id = 1; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), 5u) << "p" << id;
  }
  auto digest1 = service->replica(1).store().state_digest();
  EXPECT_EQ(service->replica(2).store().state_digest(), digest1);
  EXPECT_EQ(service->replica(3).store().state_digest(), digest1);
}

TEST(Smr, NoopSlotsWhenIdle) {
  // An idle cluster keeps replicating noop slots; state digests still
  // match (liveness of the machinery itself).
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  auto service = make_sim_service(sim_config(cfg, SmrOptions{}));
  service->start();
  service->run_until([&] { return service->replica(0).noop_slots() > 0; },
                     5ms);
  EXPECT_GT(service->replica(0).noop_slots(), 0u);
  EXPECT_EQ(service->replica(0).applied_commands(), 0u);
  EXPECT_EQ(service->replica(0).store().state_digest(),
            service->replica(3).store().state_digest());
}


// --- Pipelined slot engine ----------------------------------------------------------

/// Depth-`depth` pipeline (batch 2) with delivery delays in
/// [min_delay, 100].
ServiceConfig pipelined_config(std::uint32_t depth, Duration min_delay = 100) {
  SmrOptions smr_options;
  smr_options.max_batch = 2;
  smr_options.pipeline_depth = depth;
  return sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options,
                    /*seed=*/7, min_delay);
}

/// Runs `commands` PUTs through a cluster built from `config` and returns
/// the simulated completion time (all nodes applied everything).
TimePoint run_pipelined(const ServiceConfig& config, std::uint64_t commands) {
  auto service = make_sim_service(config);
  service->start();
  at_time(*service, 0, [&] {
    for (std::uint64_t i = 1; i <= commands; ++i) {
      service->replica(0).submit(Command::put("key" + std::to_string(i),
                                              "val" + std::to_string(i), 1,
                                              i));
    }
  });
  service->await_applied(commands, 10'000ms);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), commands)
        << "p" << id;
    EXPECT_EQ(service->replica(id).store().state_digest(),
              service->replica(0).store().state_digest())
        << "p" << id;
  }
  return service->sim_network()->scheduler().now();
}

TEST(SmrPipelined, InOrderApplyUnderJitter) {
  // Depth 4 with jittery delivery: decisions can land out of slot order,
  // but every replica must apply slots 1, 2, 3, ... consecutively — else
  // some link of the CAS chain would find its predecessor missing.
  constexpr std::uint64_t kCommands = 20;
  auto service = make_sim_service(pipelined_config(4, /*min_delay=*/30));
  service->start();
  inject(*service, cas_chain(kCommands));
  ASSERT_TRUE(service->await_applied(kCommands, 10'000ms));

  for (ProcessId id = 0; id < 4; ++id) {
    const SmrNode& node = service->replica(id);
    EXPECT_EQ(node.applied_commands(), kCommands) << "p" << id;
    EXPECT_EQ(node.store().get("chain"), "v" + std::to_string(kCommands))
        << "p" << id << " applied slots out of order";
    EXPECT_GE(node.engine().reorder_high_water(), 1u)
        << "p" << id << ": no decision ever landed out of order";
  }
}

TEST(SmrPipelined, DepthFourBeatsSequential) {
  // The KV-store audit inside run_pipelined doubles as the correctness
  // check; the point here is the wall-clock (simulated) win.
  TimePoint sequential = run_pipelined(pipelined_config(1), 24);
  TimePoint pipelined = run_pipelined(pipelined_config(4), 24);
  EXPECT_LT(pipelined, sequential)
      << "depth 4 must finish the same workload in less simulated time";
}

TEST(SmrPipelined, DivergentWindowsJoinPeerSlots) {
  // Adaptive control sizes the window per replica, so windows diverge:
  // here replicas 2/3 are pinned at depth 1 (unattainable 1-tick latency
  // target) while replicas 0/1 open eight slots ahead. Every quorum of
  // three includes a pinned replica, so if narrow replicas dropped
  // traffic for slots beyond their own frontier (as they did before the
  // on-demand join), each slot ahead would stall into view-change
  // recovery. With the join, the cluster must run at the WIDE replicas'
  // pace: strictly faster than an all-depth-1 cluster on the same
  // workload.
  TimePoint sequential = run_pipelined(pipelined_config(1), 24);

  ServiceConfig config = pipelined_config(8);
  config.tune_replica = [](ProcessId id, SmrOptions& narrow) {
    if (id < 2) return;
    narrow.pipeline_depth = 1;
    narrow.adaptive.enabled = true;
    narrow.adaptive.latency_target = 1;  // unattainable: depth stays at min
    narrow.adaptive.min_depth = 1;
    narrow.adaptive.max_depth = 8;
    narrow.adaptive.min_batch = 2;  // isolate the depth divergence
  };
  EXPECT_LT(run_pipelined(config, 24), sequential)
      << "divergent windows must pipeline at the wide replicas' pace, "
         "not stall behind the narrow ones";
}

TEST(SmrPipelined, NodesExposeEngineWindow) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.pipeline_depth = 4;
  auto service = make_sim_service(sim_config(cfg, smr_options));
  service->start();
  const SmrNode& node0 = service->replica(0);
  // Run p0's start event only.
  service->run_until([&] { return node0.current_slot() > 0; }, 1ms);
  EXPECT_EQ(node0.current_slot(), 4u) << "window opens depth slots";
  EXPECT_EQ(node0.engine().inflight_slots(), 4u);
  EXPECT_EQ(node0.engine().next_to_apply(), 1u);
  EXPECT_EQ(node0.engine().inflight_high_water(), 4u)
      << "the engine's gauge tracks this node's window";
  // Two windows' worth of noop slots.
  service->run_until([&] { return node0.noop_slots() >= 8; }, 50ms);
  EXPECT_GT(node0.noop_slots(), 0u);
  // The high-water saw the full window too.
  EXPECT_GE(node0.engine().inflight_high_water(), 4u);
  // Every applied slot was proposed: each proposal broadcast counts as
  // n wrapped PROPOSE messages.
  EXPECT_GE(service->sim_network()->stats().wrapped_messages_of(
                net::tags::kPropose),
            cfg.n * node0.noop_slots());
}

TEST(SmrPipelined, FaultyLeaderDoesNotStallLaterSlots) {
  // rotate_leaders gives slot s's view 1 to the round-robin successor of
  // slot s-1's; crashing p0 therefore stalls the slots p0 leads (1, 5, ...)
  // until their view change, while slots led by p1..p3 keep deciding. The
  // reorder high-water mark proves decisions landed out of order and were
  // held; the CAS chain proves they were applied in slot order anyway.
  constexpr std::uint64_t kCommands = 8;
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 1;
  smr_options.pipeline_depth = 4;
  smr_options.rotate_leaders = true;
  auto service = make_sim_service(sim_config(cfg, smr_options, /*seed=*/3));
  service->start();
  at_time(*service, 10, [&] { service->crash(0); });  // before any slot
                                                      // can decide
  at_time(*service, 0, [&] {
    for (const Command& cmd : cas_chain(kCommands)) {
      service->replica(1).submit(cmd);
    }
  });
  service->await_applied(kCommands, 5000ms);

  for (ProcessId id = 1; id < 4; ++id) {
    const SmrNode& node = service->replica(id);
    EXPECT_EQ(node.applied_commands(), kCommands) << "p" << id;
    EXPECT_EQ(node.store().state_digest(),
              service->replica(1).store().state_digest())
        << "p" << id;
    EXPECT_GE(node.engine().reorder_high_water(), 1u)
        << "slots after the stalled one should have decided first";
    EXPECT_EQ(node.store().get("chain"), "v" + std::to_string(kCommands))
        << "p" << id << " applied slots out of order";
  }
}

TEST(SmrPipelined, RetiredSlotStateIsFreed) {
  // GC audit: after a pipelined run finishes, every per-slot structure
  // must be empty — no live instances, no parked decisions, no claimed
  // commands, no timers — and the catch-up policy must have pruned
  // decided values below the gossiped watermark floor instead of
  // retaining all of them. On-demand windows let the cluster go quiet
  // once the workload is applied.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 2;
  smr_options.pipeline_depth = 4;
  smr_options.eager_windows = false;
  auto service = make_sim_service(sim_config(cfg, smr_options));
  service->start();
  at_time(*service, 0, [&] {
    for (std::uint64_t i = 1; i <= 40; ++i) {
      service->replica(0).submit(
          Command::put("k" + std::to_string(i), "v", 1, i));
    }
  });
  run_until_quiet(*service, 2000ms);

  for (ProcessId id = 0; id < 4; ++id) {
    const auto& engine = service->replica(id).engine();
    ASSERT_EQ(service->replica(id).applied_commands(), 40u) << "p" << id;
    EXPECT_EQ(engine.inflight_slots(), 0u) << "p" << id;
    EXPECT_EQ(engine.reorder_pending(), 0u) << "p" << id;
    EXPECT_EQ(engine.pending().claimed_count(), 0u) << "p" << id;
    EXPECT_EQ(engine.timers().pending(), 0u)
        << "p" << id << ": stopped synchronizers must drop wheel entries";
    EXPECT_GT(engine.catchup().pruned_count(), 0u) << "p" << id;
    EXPECT_LT(engine.catchup().decided_count(),
              static_cast<std::size_t>(engine.highest_started()))
        << "p" << id << " retains every decided value";
  }
}

TEST(SmrPipelined, ReorderBacklogClampStopsOpeningSlots) {
  // Two stalls released at different times force the state the clamp
  // guards against: apply progress resumes (slot 1 releases) while a
  // later stall (slot 6) still holds decisions in the reorder buffer.
  // With max_reorder_backlog = 1 the engine must then refuse to open new
  // slots instead of deciding even further ahead.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 1;
  smr_options.pipeline_depth = 8;
  smr_options.max_reorder_backlog = 1;
  auto service = make_sim_service(sim_config(cfg, smr_options, /*seed=*/2));

  auto wrapped_slot = [](const net::Envelope& env) -> std::optional<Slot> {
    if (env.payload.empty() || env.payload[0] != net::tags::kSmrWrapped) {
      return std::nullopt;
    }
    Decoder dec(env.payload);
    dec.u8();
    dec.u32();  // group
    Slot slot = dec.u64();
    if (!dec.ok()) return std::nullopt;
    return slot;
  };
  service->sim_network()->set_script(
      [wrapped_slot](const net::Envelope& env,
                     TimePoint now) -> std::optional<TimePoint> {
        auto slot = wrapped_slot(env);
        if (slot == 1) return std::max<TimePoint>(now + 100, 20'000);
        if (slot == 6) return std::max<TimePoint>(now + 100, 60'000);
        return std::nullopt;
      });

  service->start();
  at_time(*service, 0, [&] {
    for (std::uint64_t i = 1; i <= 20; ++i) {
      service->replica(1).submit(
          Command::put("k" + std::to_string(i), "v", 6, i));
    }
  });
  service->await_applied(20, 2000ms);

  for (ProcessId id = 0; id < 4; ++id) {
    const SmrNode& node = service->replica(id);
    EXPECT_EQ(node.applied_commands(), 20u) << "p" << id;
    EXPECT_GT(node.engine().clamp_stalls(), 0u)
        << "p" << id << ": the backlog clamp never engaged";
    EXPECT_EQ(node.store().state_digest(),
              service->replica(0).store().state_digest())
        << "p" << id;
  }
}

// --- Catch-up via SMR_DECIDED state transfer -------------------------------------

TEST(SmrCatchUp, LaggardAdoptsDecidedSlots) {
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 2;
  smr_options.eager_windows = false;
  auto service = make_sim_service(sim_config(cfg, smr_options));

  // Everything to or from p3 is held back until t = 10000: p3 misses the
  // live consensus entirely and must catch up through decided claims.
  service->sim_network()->set_script(
      [](const net::Envelope& env, TimePoint now) -> std::optional<TimePoint> {
        if ((env.to == 3 || env.from == 3) && env.from != env.to) {
          return std::max<TimePoint>(now + 100, 10'000);
        }
        return std::nullopt;
      });

  service->start();
  at_time(*service, 0, [&] {
    for (int i = 1; i <= 4; ++i) {
      service->replica(0).submit(Command::put(
          "k" + std::to_string(i), "v", 5, static_cast<std::uint64_t>(i)));
    }
  });
  run_until_quiet(*service, 300ms);

  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), 4u) << "p" << id;
  }
  EXPECT_EQ(service->replica(3).store().state_digest(),
            service->replica(0).store().state_digest())
      << "the laggard must converge to the same state";
}

TEST(SmrCatchUp, SubQuorumClaimsAreIgnored) {
  // Eager windows: the claims target slot 1, which p3 opens at start
  // without a command to propose.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  auto service = make_sim_service(sim_config(cfg, SmrOptions{}));
  service->start();
  SmrNode& p3 = service->replica(3);
  // Run the start events only (p3's is the last).
  service->run_until([&] { return p3.current_slot() > 0; }, 1ms);
  ASSERT_EQ(p3.current_slot(), 1u);

  Value claimed = encode_batch({Command::put("evil", "1", 66, 1)});
  Encoder enc;
  enc.u8(net::tags::kSmrDecided);
  enc.u32(0);  // group
  enc.u64(1);
  claimed.encode(enc);
  Bytes claim = std::move(enc).take();

  // One claim (fewer than f + 1 = 2): nothing may be adopted.
  p3.on_message(1, claim);
  EXPECT_EQ(p3.applied_commands(), 0u);
  EXPECT_EQ(p3.current_slot(), 1u);

  // A second claim from a different process crosses f + 1: adopted.
  p3.on_message(2, claim);
  EXPECT_EQ(p3.applied_commands(), 1u);
  EXPECT_EQ(p3.store().get("evil"), "1");
  EXPECT_EQ(p3.current_slot(), 2u);

  // Duplicate senders never count twice (checked by construction above:
  // the same sender repeated would not have crossed the threshold).
  p3.on_message(2, claim);
  EXPECT_EQ(p3.applied_commands(), 1u);
}

// --- Slow path only at t < f; decided-value pull ------------------------------

/// Runs `commands` PUTs (batch 2, depth 4) through a fault-free cluster
/// until every replica applied them; the service is returned for its
/// traffic counters.
std::unique_ptr<Service> run_fault_free(consensus::QuorumConfig cfg,
                                        std::uint64_t commands,
                                        Duration min_delay = 100) {
  SmrOptions smr_options;
  smr_options.max_batch = 2;
  smr_options.pipeline_depth = 4;
  auto service =
      make_sim_service(sim_config(cfg, smr_options, /*seed=*/3, min_delay));
  service->start();
  at_time(*service, 0, [&service, commands] {
    for (std::uint64_t i = 1; i <= commands; ++i) {
      service->replica(0).submit(
          Command::put("key" + std::to_string(i), "v", 1, i));
    }
  });
  service->await_applied(commands, 2000ms);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    EXPECT_EQ(service->replica(id).applied_commands(), commands) << "p" << id;
  }
  return service;
}

TEST(SmrSlowPath, OffAtTEqualsF) {
  // t = f: the vanilla protocol, propose + n^2 unsigned acks per slot.
  auto service = run_fault_free(consensus::QuorumConfig::create(4, 1, 1), 12);
  const auto& stats = service->sim_network()->stats();
  EXPECT_GT(stats.wrapped_messages_of(net::tags::kAck), 0u);
  EXPECT_EQ(stats.wrapped_messages_of(net::tags::kAckSig), 0u);
  EXPECT_EQ(stats.wrapped_messages_of(net::tags::kCommit), 0u);
}

TEST(SmrSlowPath, OnWhenTBelowF) {
  // t < f: the Appendix-A slow path stays on by default.
  auto service = run_fault_free(consensus::QuorumConfig::create(7, 2, 1), 12);
  const auto& stats = service->sim_network()->stats();
  EXPECT_GT(stats.wrapped_messages_of(net::tags::kAckSig), 0u);
  EXPECT_GT(stats.wrapped_messages_of(net::tags::kCommit), 0u);
}

TEST(SmrPull, HealthySkewRarelyPulls) {
  // Fault-free, jittered delivery: a replica can hear two peers' advanced
  // watermarks before its own last ack for a slot arrives, and then pulls
  // that slot. That must stay the exception: with delays in [10, 100]
  // 2 to 4 pull messages go out per 100 slots applied (summed over the
  // replicas); with [30, 100] or lock-step links, none.
  for (Duration min_delay : {Duration{100}, Duration{30}, Duration{10}}) {
    SCOPED_TRACE("min_delay=" + std::to_string(min_delay));
    auto service = run_fault_free(consensus::QuorumConfig::create(4, 1, 1),
                                  200, min_delay);
    std::uint64_t pulls = 0;
    std::uint64_t slots = 0;
    for (ProcessId id = 0; id < 4; ++id) {
      pulls += service->engine_stats(id).decided_pulls;
      slots += service->engine_stats(id).slots_applied;
    }
    std::string suffix = "_min_delay_" + std::to_string(min_delay);
    ::testing::Test::RecordProperty("pulls" + suffix,
                                    static_cast<int>(pulls));
    ::testing::Test::RecordProperty("slots_applied" + suffix,
                                    static_cast<int>(slots));
    EXPECT_EQ(service->sim_network()->stats().messages_of(
                  net::tags::kSmrDecidedPull),
              pulls);
    EXPECT_LE(pulls * 10, slots) << "more than one pull per 10 slots";
  }
}

TEST(SmrPull, AnsweredOncePerSlotAndPeer) {
  // p2 is down from the start, so p0 keeps every decided value (p2's
  // watermark pins retention); p3 asks p0 for slot 1 directly.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 1;
  auto service = make_sim_service(sim_config(cfg, smr_options));
  service->crash(2);
  service->start();
  at_time(*service, 0, [&] {
    for (std::uint64_t i = 1; i <= 3; ++i) {
      service->replica(0).submit(
          Command::put("k" + std::to_string(i), "v", 1, i));
    }
  });
  service->await_applied(3, 100ms);
  SmrNode& p0 = service->replica(0);
  ASSERT_EQ(p0.applied_commands(), 3u);
  ASSERT_NE(p0.engine().catchup().decided(1), nullptr);

  const auto& stats = service->sim_network()->stats();
  auto replies_after = [&](Bytes request, int times) {
    std::uint64_t before = stats.messages_of(net::tags::kSmrDecided);
    for (int i = 0; i < times; ++i) p0.on_message(3, request);
    return stats.messages_of(net::tags::kSmrDecided) - before;
  };
  EXPECT_EQ(replies_after(engine::encode_decided_pull(0, 1), 3), 1u)
      << "one reply per (slot, peer)";
  EXPECT_EQ(replies_after(engine::encode_decided_pull(0, 1), 1), 0u);
  // Undecided: a slot p0 never opened.
  Slot beyond = p0.current_slot() + 5;
  EXPECT_EQ(replies_after(engine::encode_decided_pull(0, beyond), 1), 0u);
  // Another retained slot is served on its own.
  EXPECT_EQ(replies_after(engine::encode_decided_pull(0, 2), 1), 1u);
}

TEST(SmrPull, PrunedSlotGetsNoReply) {
  // Fault-free: every watermark passes slot 1, so p0 prunes it.
  auto service = run_fault_free(consensus::QuorumConfig::create(4, 1, 1), 12);
  SmrNode& p0 = service->replica(0);
  const auto& catchup = p0.engine().catchup();
  ASSERT_GT(catchup.prune_floor(), 1u);
  ASSERT_EQ(catchup.decided(1), nullptr);
  const auto& stats = service->sim_network()->stats();
  std::uint64_t before = stats.messages_of(net::tags::kSmrDecided);
  p0.on_message(3, engine::encode_decided_pull(0, 1));
  EXPECT_EQ(stats.messages_of(net::tags::kSmrDecided), before);
}

// --- Snapshot state transfer: crash -> watermark pin -> rejoin -------------------

/// 30 PUTs through p0 at time 0, p3 crashed at t = 20000; returns p3's
/// apply cursor at the crash, written when the crash event runs.
std::shared_ptr<Slot> crash_p3_under_load(Service& service) {
  at_time(service, 0, [&service] {
    for (std::uint64_t i = 1; i <= 30; ++i) {
      service.replica(0).submit(Command::put("key" + std::to_string(i),
                                             "val" + std::to_string(i), 1,
                                             i));
    }
  });
  auto crash_cursor = std::make_shared<Slot>(0);
  at_time(service, 20'000, [&service, crash_cursor] {
    service.crash(3);
    *crash_cursor = service.replica(3).engine().next_to_apply();
  });
  return crash_cursor;
}

TEST(SmrSnapshot, CrashedReplicaRejoinsViaSnapshotAndRetentionUnpins) {
  // The acceptance scenario for the snapshot subsystem, deterministic on
  // the simulator: p3 crashes early, freezing its applied watermark. With
  // snapshot_interval set, the survivors keep pruning decided values past
  // p3's crash point anyway (the snapshot floor overrides the frozen
  // watermark), so when a factory-fresh p3 rejoins, the slots it needs
  // are long gone — it must recover through SNAPSHOT_REQUEST/RESPONSE
  // state transfer, then apply onward in order.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 1;          // one slot per command: many slots
  smr_options.pipeline_depth = 2;     // eager windows keep noop slots (and
                                      // gossip) flowing for the rejoiner
  smr_options.snapshot_interval = 8;
  smr_options.snapshot_chunk_bytes = 64;  // force multi-chunk transfers
  auto service = make_sim_service(sim_config(cfg, smr_options, /*seed=*/5));
  service->start();
  // Probe p3's apply cursor the moment it crashes: retention must later
  // shrink BELOW this pin, which pure watermark gossip could never do.
  std::shared_ptr<Slot> crash_cursor = crash_p3_under_load(*service);
  bool restarted = false;
  at_time(*service, 120'000, [&] {
    service->restart(3);
    restarted = true;
  });

  // Every scheduler step the rejoined p3 applies slots in, as the last
  // slot it applied; installs move its cursor without applying. From its
  // first apply on, each survivor's largest retention is kept too.
  std::vector<Slot> applied_after_restart;
  Slot first_applied = 0;
  std::uint64_t slots_seen = 0;
  std::vector<std::size_t> max_retained(3, 0);
  auto rejoined_and_ran_on = [&] {
    if (!restarted) return false;
    const engine::SlotMux& p3 = service->replica(3).engine();
    if (p3.slots_applied() > slots_seen) {
      if (applied_after_restart.empty()) {
        first_applied = p3.next_to_apply() - (p3.slots_applied() - slots_seen);
      }
      applied_after_restart.push_back(p3.next_to_apply() - 1);
      slots_seen = p3.slots_applied();
    }
    if (applied_after_restart.empty()) return false;
    for (ProcessId id = 0; id < 3; ++id) {
      max_retained[id] =
          std::max(max_retained[id],
                   service->replica(id).engine().catchup().decided_count());
    }
    // The snapshot alone can bring all 30 commands; wait for live slots,
    // then for 2800 slots past the rejoin (about as many as the survivors
    // decide by t = 400000), so retention that regrew by one entry per
    // slot would overrun its bound.
    return service->replica(3).applied_commands() >= 30 &&
           p3.slots_applied() >= smr_options.snapshot_interval &&
           service->replica(0).engine().next_to_apply() >=
               first_applied + 2800;
  };
  ASSERT_TRUE(service->run_until(rejoined_and_ran_on, 1000ms));

  ASSERT_GT(*crash_cursor, 1u) << "p3 must have applied something pre-crash";

  // The rejoined replica recovered through a snapshot, not replay.
  const SmrNode& p3 = service->replica(3);
  EXPECT_GE(p3.engine().snapshots_installed(), 1u);
  EXPECT_EQ(p3.applied_commands(), 30u);
  EXPECT_EQ(p3.store().state_digest(),
            service->replica(0).store().state_digest())
      << "the rejoined replica must converge to the survivors' state";
  EXPECT_EQ(p3.store().get("key30"), "val30");

  // Post-restart applies happened strictly in slot order, starting past
  // the installed snapshot boundary (never from slot 1 again).
  ASSERT_FALSE(applied_after_restart.empty());
  EXPECT_GT(first_applied, *crash_cursor);
  for (std::size_t i = 1; i < applied_after_restart.size(); ++i) {
    ASSERT_GT(applied_after_restart[i], applied_after_restart[i - 1])
        << "p3 applied out of order";
  }

  // Retention unpinned: every survivor pruned decided values past p3's
  // frozen watermark while it was down, and keeps retention bounded.
  for (ProcessId id = 0; id < 3; ++id) {
    const auto& catchup = service->replica(id).engine().catchup();
    EXPECT_GT(catchup.prune_floor(), *crash_cursor)
        << "p" << id << " stayed pinned at the crash point";
    EXPECT_GT(catchup.snapshot_floor(), 1u) << "p" << id;
    EXPECT_LT(catchup.decided_count(),
              static_cast<std::size_t>(smr_options.snapshot_interval) + 8)
        << "p" << id << " retention must stay within one interval + window";
    EXPECT_LT(max_retained[id],
              static_cast<std::size_t>(smr_options.snapshot_interval) + 8)
        << "p" << id << " retention outgrew its bound after the rejoin";
  }
}

TEST(SmrSnapshot, WithoutSnapshotsCrashPinsRetention) {
  // Control for the test above: identical schedule, snapshots disabled.
  // The crashed replica's frozen watermark pins every survivor's retention
  // at the crash point — the exact unbounded-growth failure mode the
  // snapshot subsystem removes.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.max_batch = 1;
  smr_options.pipeline_depth = 2;
  auto service = make_sim_service(sim_config(cfg, smr_options, /*seed=*/5));
  service->start();
  std::shared_ptr<Slot> crash_cursor = crash_p3_under_load(*service);
  // The survivors apply the workload and decide 64 slots past the pin.
  service->run_until(
      [&] {
        return service->is_faulty(3) &&
               service->replica(0).engine().next_to_apply() >
                   *crash_cursor + 64;
      },
      200ms);

  ASSERT_GT(*crash_cursor, 1u);
  for (ProcessId id = 0; id < 3; ++id) {
    const auto& catchup = service->replica(id).engine().catchup();
    EXPECT_LE(catchup.prune_floor(), *crash_cursor) << "p" << id;
    // Retention grows with every slot decided past the pin.
    EXPECT_GT(catchup.decided_count(), 50u)
        << "p" << id << ": expected pinned retention to keep growing";
  }
}


}  // namespace
}  // namespace fastbft::smr
