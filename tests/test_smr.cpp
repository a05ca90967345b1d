#include <gtest/gtest.h>

#include <map>

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
  Value value = encode_batch(batch, /*author=*/3);
  auto decoded = decode_batch(value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, batch);
  EXPECT_EQ(batch_author(value), 3u);
}

TEST(Batch, RejectsMalformed) {
  EXPECT_FALSE(decode_batch(Value()).has_value());
  EXPECT_FALSE(decode_batch(Value::of_string("xx")).has_value());
  EXPECT_FALSE(batch_author(Value::of_string("xx")).has_value());
  Encoder enc;
  enc.u32(1);  // author
  enc.u32(0);  // empty batch claim
  Value empty(std::move(enc).take());
  EXPECT_FALSE(decode_batch(empty).has_value());
  EXPECT_EQ(batch_author(empty), 1u) << "the header alone is readable";
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

TEST(SmrPipelined, NodesExposeEngineWindow) {
  // Eight one-command slots' worth of work opens the whole window at
  // once; the engine's gauges track it.
  auto cfg = consensus::QuorumConfig::create(4, 1, 1);
  SmrOptions smr_options;
  smr_options.pipeline_depth = 4;
  smr_options.max_batch = 1;
  auto service = make_sim_service(sim_config(cfg, smr_options));
  service->start();
  std::vector<Command> commands;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    commands.push_back(Command::put("k" + std::to_string(i), "v", 1, i));
  }
  inject(*service, commands);
  const SmrNode& node0 = service->replica(0);
  EXPECT_EQ(node0.current_slot(), 4u) << "window opens depth slots";
  EXPECT_EQ(node0.engine().inflight_slots(), 4u);
  EXPECT_EQ(node0.engine().next_to_apply(), 1u);
  EXPECT_EQ(node0.engine().inflight_high_water(), 4u)
      << "the engine's gauge tracks this node's window";
  ASSERT_TRUE(service->await_applied(commands.size(), 50ms));
  // Then eager windows keep one noop slot open at a time.
  service->run_until([&] { return node0.noop_slots() >= 8; }, 50ms);
  EXPECT_GE(node0.noop_slots(), 8u);
  EXPECT_EQ(node0.engine().inflight_high_water(), 4u)
      << "never wider than the window";
  // Every applied slot was proposed: each proposal broadcast counts as
  // n wrapped PROPOSE messages.
  EXPECT_GE(service->sim_network()->stats().wrapped_messages_of(
                net::tags::kPropose),
            cfg.n * node0.engine().slots_applied());
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

  Value claimed = encode_batch({Command::put("evil", "1", 66, 1)}, 0);
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
    // then for 2800 slots past the rejoin, so retention that regrew by one
    // entry per slot would overrun its bound. Idle, the leader holds each
    // keep-alive slot for half a view timeout, so the survivors reach
    // them at about t = 2,360,000.
    return service->replica(3).applied_commands() >= 30 &&
           p3.slots_applied() >= smr_options.snapshot_interval &&
           service->replica(0).engine().next_to_apply() >=
               first_applied + 2800;
  };
  ASSERT_TRUE(service->run_until(rejoined_and_ran_on, 4000ms));

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

// --- Leader schedule --------------------------------------------------------------
//
// Slot s > D (D = max_window_depth()) takes its view-1 leader from the
// author of slot s - D's decided batch (SlotMux::view1_leader), so after a
// crash one view change per chain of slots D apart moves the chain to the
// replacement leader instead of every later slot timing out on the dead
// one.

/// Each replica's view-1 leader of every slot of one group, sampled in its
/// live window after every scheduler step; the first sample of a slot
/// stays. A crashed replica's frozen window adds nothing new.
class LeaderLog {
 public:
  LeaderLog(std::uint32_t n, GroupId group) : group_(group), seen_(n) {}

  void sample(Service& service) {
    for (ProcessId id = 0; id < seen_.size(); ++id) {
      const engine::SlotMux& mux = service.replica(id).engine(group_);
      const Slot from = mux.next_to_apply();
      for (Slot s = from; s < from + mux.max_window_depth(); ++s) {
        seen_[id].emplace(s, mux.view1_leader(s));
      }
    }
  }

  const std::map<Slot, ProcessId>& of(ProcessId id) const {
    return seen_[id];
  }

 private:
  GroupId group_;
  std::vector<std::map<Slot, ProcessId>> seen_;
};

/// Session 0 puts one key every `gap` ticks over [0, until).
void put_load(Service& service, TimePoint until, Duration gap) {
  for (TimePoint t = 0; t < until; t += gap) {
    at_time(service, t, [&service, t, gap] {
      (void)service.session(0).put("load" + std::to_string(t / gap % 64),
                                   std::to_string(t));
    });
  }
}

/// Crashes `victim` under load. In each group, the slots up to C + D (C
/// the highest slot any replica had opened at the crash) may still start
/// at the victim; past them, each of the D chains may pay at most one
/// more view change, so a survivor decides at most D more slots above
/// view 1 over the next `kRun` slots. A leader function fixed per slot
/// number pays one for every slot the victim leads.
void expect_one_view_change_per_chain(const ServiceConfig& config,
                                      ProcessId victim) {
  constexpr Slot kRun = 200;
  constexpr TimePoint kCrashAt = 20'000;
  auto service = make_sim_service(config);
  service->start();
  const std::uint32_t n = config.cluster.n;
  const GroupId groups = service->replica(0).num_groups();
  const Slot depth = service->replica(0).engine().max_window_depth();
  put_load(*service, 400'000, 200);

  std::vector<Slot> bound(groups, 0);  // C + D per group
  at_time(*service, kCrashAt, [&] {
    for (GroupId g = 0; g < groups; ++g) {
      for (ProcessId id = 0; id < n; ++id) {
        bound[g] = std::max(bound[g], service->replica(id).current_slot(g));
      }
      bound[g] += depth;
    }
    service->crash(victim);
  });
  auto survivors_applied = [&](Slot past_bound) {
    if (!service->is_faulty(victim)) return false;
    for (ProcessId id = 0; id < n; ++id) {
      if (id == victim) continue;
      for (GroupId g = 0; g < groups; ++g) {
        if (service->replica(id).engine(g).next_to_apply() <=
            bound[g] + past_bound) {
          return false;
        }
      }
    }
    return true;
  };
  auto view_changed = [&](ProcessId id, GroupId g) {
    return service->replica(id).engine(g).view_changed_slots();
  };

  ASSERT_TRUE(service->run_until([&] { return survivors_applied(0); },
                                 2000ms));
  std::vector<std::vector<std::uint64_t>> before(
      n, std::vector<std::uint64_t>(groups, 0));
  for (ProcessId id = 0; id < n; ++id) {
    if (id == victim) continue;
    for (GroupId g = 0; g < groups; ++g) before[id][g] = view_changed(id, g);
    EXPECT_GT(service->engine_stats(id).view_changed_slots, 0u)
        << "p" << id << ": the crash should have cost a view change";
  }
  ASSERT_TRUE(service->run_until([&] { return survivors_applied(kRun); },
                                 2000ms))
      << "survivors should decide " << kRun << " slots past C + D";
  for (ProcessId id = 0; id < n; ++id) {
    if (id == victim) continue;
    for (GroupId g = 0; g < groups; ++g) {
      EXPECT_LE(view_changed(id, g) - before[id][g], depth)
          << "p" << id << " group " << g << ": slots past C + D = "
          << bound[g] << " kept timing out on the crashed p" << victim;
    }
  }
}

TEST(SmrLeaderSchedule, CrashedPinnedLeaderCostsOneViewChangePerChain) {
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), SmrOptions{});
  config.with_pipeline_depth(8).with_batch(8).with_shards(1);
  config.smr.rotate_leaders = false;
  expect_one_view_change_per_chain(config, /*victim=*/0);
}

TEST(SmrLeaderSchedule, CrashWithRotatingLeadersCostsOneViewChangePerChain) {
  // The smr_server shape: two groups, which rotate leaders by default.
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), SmrOptions{});
  config.with_pipeline_depth(4).with_batch(8).with_shards(2);
  expect_one_view_change_per_chain(config, /*victim=*/3);
}

TEST(SmrLeaderSchedule, SnapshotCarriesTheScheduleToARejoiner) {
  // p0, the pinned view-1 leader, crashes under load; one view change per
  // chain moves every later slot to p1. A factory-fresh p0 restarts after
  // the survivors pruned below a snapshot, installs it at boundary B, and
  // must start slots B .. B + D - 1 at the leaders its peers used — which
  // a replica knowing only slot numbers would take to be p0 itself.
  SmrOptions smr_options;
  smr_options.max_batch = 1;
  smr_options.pipeline_depth = 4;
  smr_options.snapshot_interval = 8;
  auto service = make_sim_service(sim_config(
      consensus::QuorumConfig::create(4, 1, 1), smr_options, /*seed=*/5));
  service->start();
  put_load(*service, 200'000, 500);
  at_time(*service, 10'000, [&] { service->crash(0); });
  bool restarted = false;
  at_time(*service, 80'000, [&] {
    service->restart(0);
    restarted = true;
  });

  LeaderLog log(4, 0);
  Slot boundary = 0;
  const Slot depth = service->replica(1).engine().max_window_depth();
  ASSERT_TRUE(service->run_until(
      [&] {
        log.sample(*service);
        if (!restarted) return false;
        const engine::SlotMux& p0 = service->replica(0).engine();
        if (boundary == 0 && p0.snapshots_installed() > 0) {
          boundary = p0.next_to_apply();
        }
        return boundary != 0 && p0.next_to_apply() >= boundary + depth;
      },
      2000ms))
      << "the restarted p0 should install a snapshot and apply past it";

  ASSERT_GT(boundary, 1u);
  for (Slot s = boundary; s < boundary + depth; ++s) {
    ASSERT_EQ(log.of(0).count(s), 1u) << "slot " << s;
    ASSERT_EQ(log.of(1).count(s), 1u) << "slot " << s;
    EXPECT_EQ(log.of(0).at(s), log.of(1).at(s)) << "slot " << s;
    EXPECT_EQ(log.of(2).at(s), log.of(1).at(s)) << "slot " << s;
    EXPECT_NE(log.of(1).at(s), 0u)
        << "slot " << s << ": the schedule should have left the crashed p0";
  }
}

TEST(SmrLeaderSchedule, DecidedAuthorLeadsTheSlotDLater) {
  // p3 adopts slot 1 and then slot 2 from f + 1 matching claims; each
  // applied batch's author header picks the view-1 leader D slots later.
  // A header naming no replica counts as the slot's own view-1 leader.
  SmrOptions smr_options;
  smr_options.pipeline_depth = 4;
  auto service = make_sim_service(
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options));
  service->start();
  SmrNode& p3 = service->replica(3);
  service->run_until([&] { return p3.current_slot() > 0; }, 1ms);
  const engine::SlotMux& mux = p3.engine();
  const Slot depth = mux.max_window_depth();
  auto adopt = [&](Slot slot, ProcessId author, std::uint64_t seq) {
    Encoder enc;
    enc.u8(net::tags::kSmrDecided);
    enc.u32(0);  // group
    enc.u64(slot);
    encode_batch({Command::put("k", "v", 66, seq)}, author).encode(enc);
    Bytes claim = std::move(enc).take();
    p3.on_message(1, claim);
    p3.on_message(2, claim);
  };

  adopt(1, /*author=*/2, 1);
  ASSERT_EQ(mux.next_to_apply(), 2u);
  EXPECT_EQ(mux.view1_leader(1 + depth), 2u);
  adopt(2, /*author=*/99, 2);
  ASSERT_EQ(mux.next_to_apply(), 3u);
  EXPECT_EQ(mux.view1_leader(2 + depth), 0u) << "slot 2's own view-1 leader";
  EXPECT_EQ(mux.view1_leader(depth), 0u) << "slots <= D start at p0";
}

TEST(SmrLeaderSchedule, MisnamedAuthorCannotCaptureAChain) {
  // Rotating leaders with D = 1: slot s + 1 starts at author(s) + 1. A
  // Byzantine p1 re-signs every view-1 proposal it makes with a header
  // naming p0 = p1 - D; were headers trusted, p1 would then lead every
  // later slot. A correct replica acks a leader's own batch only if it
  // names that leader, so each forgery costs one view change, p2's batch
  // decides instead, and the next slot starts at p3.
  constexpr ProcessId kByz = 1;
  constexpr std::uint32_t kN = 4;
  SmrOptions smr_options;
  smr_options.pipeline_depth = 1;
  smr_options.max_batch = 2;
  smr_options.rotate_leaders = true;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(kN, 1, 1), smr_options);
  auto service = make_sim_service(config);
  net::SimNetwork& net = *service->sim_network();
  const crypto::Signer signer(
      std::make_shared<const crypto::KeyStore>(config.key_seed, kN), kByz);

  // p1's view-1 proposal with the author header rewritten and re-signed;
  // nullopt for every other message.
  auto forge = [&](ByteView payload) -> std::optional<Bytes> {
    Decoder dec(payload);
    if (dec.u8() != net::tags::kSmrWrapped) return std::nullopt;
    const GroupId group = dec.u32();
    const Slot slot = dec.u64();
    const Slot watermark = dec.u64();
    const Slot floor = dec.u64();
    auto inner = consensus::parse_message(dec.bytes_view());
    if (!dec.ok() || !inner) return std::nullopt;
    auto* propose = std::get_if<consensus::ProposeMsg>(&*inner);
    if (propose == nullptr || propose->v != 1) return std::nullopt;
    auto commands = decode_batch(propose->x);
    if (!commands) return std::nullopt;
    propose->x = encode_batch(*commands, (kByz + kN - 1) % kN);
    propose->tau = signer.sign_digest(
        consensus::kDomPropose, consensus::xv_preimage_digest(propose->x, 1));
    Encoder enc;
    enc.u8(net::tags::kSmrWrapped);
    enc.u32(group);
    enc.u64(slot);
    enc.u64(watermark);
    enc.u64(floor);
    std::size_t start = enc.begin_field();
    propose->encode(enc);
    enc.end_field(start);
    return std::move(enc).take();
  };
  bool sending_forgery = false;
  std::uint64_t forgeries = 0;
  net.set_script([&](const net::Envelope& env,
                     TimePoint now) -> std::optional<TimePoint> {
    if (env.from != kByz || sending_forgery) return std::nullopt;
    auto forged = forge(env.payload);
    if (!forged) return std::nullopt;
    ++forgeries;
    net.scheduler().schedule_at(
        now + 50, [&net, &sending_forgery, from = env.from, to = env.to,
                   forged = std::move(*forged)] {
          sending_forgery = true;
          // Materialized here, not inside p1's broadcast loop, which
          // asserts that it shares one buffer.
          net.send(from, to, SharedBytes(forged));
          sending_forgery = false;
        });
    return kTimeInfinity;  // the genuine proposal never arrives
  });

  service->start();
  put_load(*service, 400'000, 500);
  constexpr Slot kSlots = 60;
  LeaderLog log(kN, 0);
  ASSERT_TRUE(service->run_until(
      [&] {
        log.sample(*service);
        for (ProcessId id = 0; id < kN; ++id) {
          if (service->replica(id).engine().next_to_apply() <= kSlots) {
            return false;
          }
        }
        return true;
      },
      2000ms));

  EXPECT_GT(forgeries, 0u);
  for (ProcessId id = 0; id < kN; ++id) {
    std::uint64_t led = 0;
    for (Slot s = 1; s <= kSlots; ++s) {
      ASSERT_EQ(log.of(id).count(s), 1u) << "p" << id << " slot " << s;
      if (log.of(id).at(s) != kByz) continue;
      ++led;
      if (s > 1) {
        EXPECT_NE(log.of(id).at(s - 1), kByz)
            << "p" << id << ": p1 kept the chain into slot " << s;
      }
    }
    // 0, 1, (view change to p2), 3, 0, 1, ...: one slot in three at most.
    EXPECT_LE(led, kSlots / 3 + 1) << "p" << id;
    EXPECT_GE(service->engine_stats(id).view_changed_slots + 1, led)
        << "p" << id << ": each slot p1 led should have changed view";
  }
}

TEST(SmrLeaderScheduleDeathTest, ReplicasMustShareTheWindowDepth) {
  // D is part of every replica's leader schedule: a replica with another
  // depth would start slots at other leaders once a view change moved
  // the schedule.
  SmrOptions smr_options;
  smr_options.pipeline_depth = 4;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options);
  config.tune_replica = [](ProcessId id, SmrOptions& tuned) {
    if (id == 3) tuned.pipeline_depth = 2;
  };
  EXPECT_DEATH(make_sim_service(config)->start(), "max_window_depth");
}

TEST(SmrLeaderSchedule, FaultFreeRunsKeepTheFixedLeaders) {
  // Without a view change every decided batch is its view-1 leader's, so
  // the derived schedule is the fixed one: p0 pinned, (s - 1) mod n
  // rotating.
  for (bool rotate : {false, true}) {
    SmrOptions smr_options;
    smr_options.pipeline_depth = 4;
    smr_options.max_batch = 2;
    smr_options.rotate_leaders = rotate;
    auto service = make_sim_service(
        sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options));
    service->start();
    put_load(*service, 100'000, 300);
    LeaderLog log(4, 0);
    ASSERT_TRUE(service->run_until(
        [&] {
          log.sample(*service);
          for (ProcessId id = 0; id < 4; ++id) {
            if (service->replica(id).engine().next_to_apply() <= 300) {
              return false;
            }
          }
          return true;
        },
        2000ms));
    for (ProcessId id = 0; id < 4; ++id) {
      EXPECT_GE(log.of(id).size(), 300u);
      for (const auto& [slot, leader] : log.of(id)) {
        EXPECT_EQ(leader, rotate ? (slot - 1) % 4 : 0u)
            << "p" << id << " slot " << slot << (rotate ? " rotating" : "");
      }
      EXPECT_EQ(service->engine_stats(id).view_changed_slots, 0u)
          << "p" << id;
    }
  }
}

// --- Keep-alive windows and leader suspicion -----------------------------------
//
// An idle eager cluster keeps one noop slot open, which is also its probe
// for a crashed leader. A leader replaced in a view change is suspected
// until it is heard from again: every open slot it leads wishes for the
// next view at once, and the slots of its chain open together
// (SlotMux::fill_window), so a crash costs one view-change timeout.

/// Slot and inner tag of an SMR_WRAPPED payload; nullopt for anything else.
std::optional<std::pair<Slot, std::uint8_t>> wrapped_slot_tag(
    ByteView payload) {
  Decoder dec(payload);
  if (dec.u8() != net::tags::kSmrWrapped) return std::nullopt;
  dec.u32();  // group
  const Slot slot = dec.u64();
  dec.u64();  // watermark
  dec.u64();  // snapshot floor
  ByteView inner = dec.bytes_view();
  if (!dec.ok() || inner.empty()) return std::nullopt;
  return std::make_pair(slot, inner[0]);
}

TEST(SmrKeepAlive, IdleEagerClusterKeepsOneSlotOpen) {
  SmrOptions smr_options;
  smr_options.pipeline_depth = 8;
  auto service = make_sim_service(
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options));
  service->start();
  std::uint32_t widest = 0;
  ASSERT_TRUE(service->run_until(
      [&] {
        bool done = true;
        for (ProcessId id = 0; id < 4; ++id) {
          const SmrNode& node = service->replica(id);
          widest = std::max(widest, node.engine().inflight_slots());
          done = done && node.noop_slots() >= 50;
        }
        return done;
      },
      100ms))
      << "noop slots should keep deciding";
  EXPECT_EQ(widest, 1u);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(service->replica(id).engine().inflight_high_water(), 1u)
        << "p" << id;
  }
}

TEST(SmrKeepAlive, IdleLeaderCrashStillChangesView) {
  // The keep-alive slot open at the crash times out, and its view change
  // moves p0's chain to p1: the survivors keep deciding noop slots.
  constexpr TimePoint kCrashAt = 5'000;
  constexpr Duration kDelta = 100;
  SmrOptions smr_options;
  smr_options.pipeline_depth = 8;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options);
  const Duration base = config.smr.node.sync.base_timeout;
  auto service = make_sim_service(config);
  service->start();
  at_time(*service, kCrashAt, [&] { service->crash(0); });
  auto view_changed = [&] {
    for (ProcessId id = 1; id < 4; ++id) {
      if (service->engine_stats(id).view_changed_slots == 0) return false;
    }
    return true;
  };
  ASSERT_TRUE(service->run_until(view_changed, 100ms));
  EXPECT_LE(service->sim_network()->scheduler().now(),
            kCrashAt + base + 8 * kDelta)
      << "the keep-alive slot should change view within one timeout";
  std::vector<std::uint64_t> noops(4);
  for (ProcessId id = 1; id < 4; ++id) {
    noops[id] = service->replica(id).noop_slots();
  }
  ASSERT_TRUE(service->run_until(
      [&] {
        for (ProcessId id = 1; id < 4; ++id) {
          if (service->replica(id).noop_slots() < noops[id] + 20) {
            return false;
          }
        }
        return true;
      },
      100ms))
      << "survivors should keep deciding after the view change";
  for (ProcessId id = 1; id < 4; ++id) {
    EXPECT_TRUE(service->replica(id).engine().suspects(0)) << "p" << id;
  }
}

TEST(SmrSuspicion, CrashedLeaderSlotsDecideWithinOneTimeoutOfTheFirstViewChange) {
  // On-demand windows and a pinned p0: every request opens a slot, and
  // the slots up to C + D after the crash start at p0. Without suspicion
  // each of them waits out its own timer from whenever a request opened
  // it, so the last one decides D requests later.
  constexpr ProcessId kVictim = 0;
  constexpr TimePoint kCrashAt = 20'000;
  constexpr Duration kDelta = 100;
  SmrOptions smr_options;
  smr_options.pipeline_depth = 8;
  smr_options.rotate_leaders = false;
  smr_options.eager_windows = false;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options);
  const Duration base = config.smr.node.sync.base_timeout;
  auto service = make_sim_service(config);
  service->start();
  put_load(*service, 60'000, 500);
  at_time(*service, kCrashAt, [&] { service->crash(kVictim); });

  // Per survivor: every slot it opened with the victim as view-1 leader,
  // and the time it applied it.
  std::vector<std::map<Slot, TimePoint>> victim_slots(4);
  TimePoint first_view_change = kTimeInfinity;
  const sim::Scheduler& sched = service->sim_network()->scheduler();
  auto sample = [&] {
    for (ProcessId id = 1; id < 4; ++id) {
      const engine::SlotMux& mux = service->replica(id).engine();
      if (first_view_change == kTimeInfinity &&
          mux.view_changed_slots() > 0) {
        first_view_change = sched.now();
      }
      for (auto& [slot, applied_at] : victim_slots[id]) {
        if (applied_at == kTimeInfinity && slot < mux.next_to_apply()) {
          applied_at = sched.now();
        }
      }
      for (Slot s = mux.next_to_apply(); s <= mux.highest_started(); ++s) {
        if (mux.view1_leader(s) == kVictim) {
          victim_slots[id].emplace(s, kTimeInfinity);
        }
      }
    }
  };
  ASSERT_TRUE(service->run_until(
      [&] {
        sample();
        return sched.now() > 60'000;
      },
      100ms));
  ASSERT_NE(first_view_change, kTimeInfinity);
  for (ProcessId id = 1; id < 4; ++id) {
    Slot after_crash = 0;
    for (const auto& [slot, applied_at] : victim_slots[id]) {
      EXPECT_LE(applied_at, first_view_change + base + 4 * kDelta)
          << "p" << id << " slot " << slot;
      after_crash += applied_at > kCrashAt;
    }
    EXPECT_GE(after_crash, 2u) << "p" << id;
    EXPECT_GT(service->engine_stats(id).suspected_wishes, 0u) << "p" << id;
  }
}

TEST(SmrSuspicion, AckedSlotIsNotPushedIntoViewTwo) {
  // Pinned p0 leads slots 1 and 2. Its proposal for slot 1 is lost, so
  // slot 1 changes view when its timer expires and every survivor then
  // suspects p0. Slot 2 opened later; all three survivors acked its
  // proposal, but p0's and p3's acks for it are lost, so it cannot
  // decide in view 1 either. A slot that acked must wait for its own timer: its
  // acks may still make it decide, and a wish would only push it on.
  constexpr TimePoint kSecondAt = 600;
  SmrOptions smr_options;
  smr_options.pipeline_depth = 8;
  smr_options.max_batch = 1;
  smr_options.eager_windows = false;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options);
  const Duration base = config.smr.node.sync.base_timeout;
  auto service = make_sim_service(config);
  net::SimNetwork& net = *service->sim_network();
  TimePoint slot2_first_wish = kTimeInfinity;
  net.set_script([&](const net::Envelope& env,
                     TimePoint now) -> std::optional<TimePoint> {
    auto st = wrapped_slot_tag(env.payload);
    if (!st) return std::nullopt;
    const auto [slot, tag] = *st;
    if (slot == 1 && tag == net::tags::kPropose && env.from == 0) {
      return kTimeInfinity;
    }
    if (slot == 2 && tag == net::tags::kAck && now < kSecondAt + base &&
        (env.from == 0 || env.from == 3)) {
      return kTimeInfinity;  // view 1's acks; view 2's go through
    }
    if (slot == 2 && tag == net::tags::kWish && env.from != 0) {
      slot2_first_wish = std::min(slot2_first_wish, now);
    }
    return std::nullopt;
  });
  service->start();
  at_time(*service, 0, [&] {
    service->replica(1).submit(Command::put("a", "1", 1, 1));
  });
  at_time(*service, kSecondAt, [&] {
    service->replica(1).submit(Command::put("b", "2", 1, 2));
  });
  at_time(*service, kSecondAt + 300, [&] { service->crash(0); });

  ASSERT_TRUE(service->run_until(
      [&] {
        for (ProcessId id = 1; id < 4; ++id) {
          if (!service->replica(id).engine().suspects(0)) return false;
        }
        return true;
      },
      10ms))
      << "slot 1's view change should make the survivors suspect p0";
  ASSERT_TRUE(service->await_applied(2, 100ms));
  EXPECT_GE(slot2_first_wish, kSecondAt + base)
      << "slot 2 wished before its own timer expired";
}

TEST(SmrSuspicion, RestartedLeaderIsTrustedAgain) {
  // Rotating leaders with D = 3 and n = 4: every chain comes back to p3
  // every four steps. While p3 is down its slots wish at once; once the
  // restarted p3 sends traffic the suspicion clears, and the slots it
  // leads decide in view 1 again.
  SmrOptions smr_options;
  smr_options.pipeline_depth = 3;
  smr_options.max_batch = 1;
  smr_options.rotate_leaders = true;
  smr_options.snapshot_interval = 8;
  auto service = make_sim_service(sim_config(
      consensus::QuorumConfig::create(4, 1, 1), smr_options, /*seed=*/5));
  service->start();
  put_load(*service, 200'000, 500);
  at_time(*service, 10'000, [&] { service->crash(3); });
  bool suspected = false;
  ASSERT_TRUE(service->run_until(
      [&] {
        suspected = suspected || (service->replica(0).engine().suspects(3) &&
                                  service->replica(1).engine().suspects(3));
        return service->sim_network()->scheduler().now() >= 40'000;
      },
      100ms));
  EXPECT_TRUE(suspected) << "the survivors should have suspected p3";
  EXPECT_GT(service->engine_stats(0).suspected_wishes, 0u);

  service->restart(3);
  const engine::SlotMux& p0 = service->replica(0).engine();
  auto caught_up = [&] {
    const engine::SlotMux& p3 = service->replica(3).engine();
    return p3.next_to_apply() + 3 >= p0.next_to_apply();
  };
  ASSERT_TRUE(service->run_until(caught_up, 100ms))
      << "the restarted p3 should catch up";
  // Settle one window, then count: no slot p3 leads changes view.
  const Slot settle = p0.next_to_apply() + 8;
  ASSERT_TRUE(service->run_until(
      [&] { return p0.next_to_apply() > settle; }, 100ms));
  std::vector<std::uint64_t> before(4);
  for (ProcessId id = 0; id < 4; ++id) {
    before[id] = service->engine_stats(id).view_changed_slots;
  }
  LeaderLog log(4, 0);
  constexpr Slot kRun = 40;
  ASSERT_TRUE(service->run_until(
      [&] {
        log.sample(*service);
        return p0.next_to_apply() > settle + kRun;
      },
      100ms));
  std::uint64_t led_by_p3 = 0;
  for (const auto& [slot, leader] : log.of(0)) {
    led_by_p3 += slot > settle && slot <= settle + kRun && leader == 3;
  }
  EXPECT_GE(led_by_p3, kRun / 8) << "p3 should lead slots again";
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(service->engine_stats(id).view_changed_slots, before[id])
        << "p" << id;
    EXPECT_FALSE(service->replica(id).engine().suspects(3)) << "p" << id;
  }
}

// --- Slot-opening rule --------------------------------------------------------------
//
// A follower opens a slot for a waiting command only while no open slot
// still waits for that slot's leader's proposal: the leader proposes its
// slots in order, so the open one already probes it. An idle leader holds
// its keep-alive slot for half a view timeout, so a command arriving
// meanwhile rides it instead of a noop; followers open it at once, so
// their view timer still probes the leader (SlotMux::fill_window).

/// Delivers `cmd` to replica `id` at time `at` (an SMR_REQUEST minus the
/// wire hop, so the test picks each replica's arrival time).
void deliver_at(Service& service, TimePoint at, ProcessId id,
                const Command& cmd) {
  at_time(service, at, [&service, id, payload = SmrNode::encode_request(cmd)] {
    service.replica(id).on_message(0, payload);
  });
}

/// True while pinned p0 holds its keep-alive slot: it has no slot open,
/// and every other replica has that slot open, waiting for its proposal.
bool p0_holds(Service& service) {
  const engine::SlotMux& p0 = service.replica(0).engine();
  if (p0.inflight_slots() != 0) return false;
  for (ProcessId id = 1; id < service.quorum().n; ++id) {
    const engine::SlotMux& mux = service.replica(id).engine();
    if (mux.inflight_slots() != 1 ||
        mux.highest_started() != p0.highest_started() + 1) {
      return false;
    }
  }
  return true;
}

TEST(SmrWindowRule, FollowersDoNotRunAheadOfAnUnansweredProposal) {
  // Depth 2, pinned p0, lock-step links. Slots 1 and 2 carry a and b and
  // fill every window until t = 200. c and d reach p0 meanwhile, so its
  // slot 3 proposes both at t = 200; the followers get c at 150 and
  // open slot 3 for it at 200, and get d at 250, while slot 3 still waits
  // for p0's proposal (due at 300). A slot 4 opened for d would never be
  // proposed: p0 has nothing left, so it would time out and change view
  // with p0 alive.
  SmrOptions smr_options;
  smr_options.pipeline_depth = 2;
  smr_options.rotate_leaders = false;
  smr_options.eager_windows = false;
  auto service = make_sim_service(
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options));
  service->start();
  const Command a = Command::put("a", "1", 1, 1);
  const Command b = Command::put("b", "2", 1, 2);
  const Command c = Command::put("c", "3", 1, 3);
  const Command d = Command::put("d", "4", 1, 4);
  for (ProcessId id = 0; id < 4; ++id) {
    deliver_at(*service, 0, id, a);
    deliver_at(*service, 0, id, b);
  }
  deliver_at(*service, 50, 0, c);
  deliver_at(*service, 50, 0, d);
  for (ProcessId id = 1; id < 4; ++id) {
    deliver_at(*service, 150, id, c);
    deliver_at(*service, 250, id, d);
  }
  ASSERT_TRUE(run_until_quiet(*service, 100ms));
  for (ProcessId id = 0; id < 4; ++id) {
    const SmrNode& node = service->replica(id);
    EXPECT_EQ(node.applied_commands(), 4u) << "p" << id;
    EXPECT_EQ(node.engine().highest_started(), 3u)
        << "p" << id << ": c and d should share p0's slot 3";
    EXPECT_EQ(service->engine_stats(id).view_changed_slots, 0u) << "p" << id;
    EXPECT_EQ(service->engine_stats(id).suspected_wishes, 0u) << "p" << id;
  }
}

TEST(SmrWindowRule, IdleEagerClusterDecidesOneNoopPerHold) {
  // The leader opens each keep-alive slot half a view timeout after the
  // last one decided, and the slot takes two more link delays to decide.
  constexpr Duration kDelta = 100;
  SmrOptions smr_options;
  smr_options.pipeline_depth = 8;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options);
  const Duration base = config.smr.node.sync.base_timeout;
  auto service = make_sim_service(config);
  service->start();
  const sim::Scheduler& sched = service->sim_network()->scheduler();
  ASSERT_TRUE(service->run_until(
      [&] { return service->replica(0).noop_slots() >= 5; }, 100ms));
  const TimePoint from = sched.now();
  std::vector<std::uint64_t> noops(4);
  for (ProcessId id = 0; id < 4; ++id) {
    noops[id] = service->replica(id).noop_slots();
  }
  service->run_until([] { return false; }, 100ms);
  const std::uint64_t bound = (sched.now() - from) / (base / 2 + 2 * kDelta) + 1;
  for (ProcessId id = 0; id < 4; ++id) {
    const std::uint64_t decided = service->replica(id).noop_slots() - noops[id];
    EXPECT_LE(decided, bound) << "p" << id;
    EXPECT_GE(decided, bound - 1) << "p" << id << ": the keep-alive stalled";
    EXPECT_EQ(service->engine_stats(id).view_changed_slots, 0u) << "p" << id;
  }
}

TEST(SmrWindowRule, PutDuringAHoldRidesTheHeldSlot) {
  // Request, propose, ack, reply: the held slot opens when the request
  // reaches p0, so the put takes four delays, as with on-demand windows,
  // and no noop slot decides before it.
  ServiceConfig config =
      ServiceConfig{}.with_cluster(4, 1, 1).with_pipeline_depth(8).with_seed(5);
  config.smr.rotate_leaders = false;
  config.sim_net.delta = 100;
  config.sim_net.min_delay = 100;
  auto service = make_sim_service(config);
  service->start();
  ASSERT_TRUE(service->run_until(
      [&] {
        return service->replica(0).noop_slots() >= 3 && p0_holds(*service);
      },
      100ms))
      << "p0 should hold its idle keep-alive slot";
  const Slot held = service->replica(0).engine().highest_started() + 1;
  sim::Scheduler& sched = service->sim_network()->scheduler();
  sched.run_until(sched.now() + config.sim_net.delta);  // into the hold
  ASSERT_TRUE(p0_holds(*service));
  const SmrNode& p0 = service->replica(0);
  const std::uint64_t noops = p0.noop_slots();
  const TimePoint sent = sched.now();
  TimePoint done = 0;
  std::uint64_t noops_at_reply = 0;
  auto put = service->session(0).put("k", "v");
  put.on_ready([&](const Reply&) {
    done = sched.now();
    noops_at_reply = p0.noop_slots();
  });
  ASSERT_TRUE(service->await(put, 100ms));
  EXPECT_EQ(done - sent, 4 * config.sim_net.delta);
  EXPECT_EQ(put.value().slot, held);
  EXPECT_EQ(noops_at_reply, noops) << "a noop slot decided before the put";
}

TEST(SmrWindowRule, LeaderCrashedMidHoldIsReplacedWithinOneTimeout) {
  // The followers opened the held slot when the last one decided, so
  // their view-1 timer fires one timeout later whatever p0 does.
  constexpr Duration kDelta = 100;
  SmrOptions smr_options;
  smr_options.pipeline_depth = 8;
  smr_options.rotate_leaders = false;
  ServiceConfig config =
      sim_config(consensus::QuorumConfig::create(4, 1, 1), smr_options);
  const Duration base = config.smr.node.sync.base_timeout;
  auto service = make_sim_service(config);
  service->start();
  sim::Scheduler& sched = service->sim_network()->scheduler();
  ASSERT_TRUE(service->run_until(
      [&] {
        return service->replica(0).noop_slots() >= 3 && p0_holds(*service);
      },
      100ms));
  sched.run_until(sched.now() + base / 4);  // mid-hold
  ASSERT_TRUE(p0_holds(*service));
  service->crash(0);
  const TimePoint crashed_at = sched.now();
  ASSERT_TRUE(service->run_until(
      [&] {
        for (ProcessId id = 1; id < 4; ++id) {
          if (service->engine_stats(id).view_changed_slots == 0) return false;
        }
        return true;
      },
      100ms));
  EXPECT_LE(sched.now(), crashed_at + base + 6 * kDelta)
      << "the held slot should change view within one timeout";
  std::vector<std::uint64_t> noops(4);
  for (ProcessId id = 1; id < 4; ++id) {
    noops[id] = service->replica(id).noop_slots();
  }
  ASSERT_TRUE(service->run_until(
      [&] {
        for (ProcessId id = 1; id < 4; ++id) {
          if (service->replica(id).noop_slots() < noops[id] + 5) return false;
        }
        return true;
      },
      100ms))
      << "survivors should keep deciding after the view change";
}

}  // namespace
}  // namespace fastbft::smr
