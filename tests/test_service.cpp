#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "net/threaded_network.hpp"
#include "smr/service.hpp"

/// The unified client API (smr::Service + smr::ClientSession), exercised
/// through the SAME test body on both runtimes: the deterministic
/// simulator and real OS threads. This is the point of the facade — the
/// session code (typed ops, f+1 signed-reply quorum, per-request retry
/// timers, windowed backpressure, at-most-once retries) is
/// host-agnostic, so one scenario must pass unchanged on both.

namespace fastbft::smr {
namespace {

using namespace std::chrono_literals;

enum class Backend { kSim, kThreaded };

std::unique_ptr<Service> make_service(Backend backend,
                                      const ServiceConfig& config) {
  return backend == Backend::kSim ? make_sim_service(config)
                                  : make_threaded_service(config);
}

class ServiceApi : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ServiceApi,
                         ::testing::Values(Backend::kSim, Backend::kThreaded),
                         [](const auto& info) {
                           return info.param == Backend::kSim ? "Sim"
                                                              : "Threaded";
                         });

/// Awaits a future with a generous budget and returns the reply.
Reply must_complete(Service& service, Future<Reply> future) {
  EXPECT_TRUE(service.await(future, 20'000ms)) << "request never completed";
  return future.value();
}

TEST_P(ServiceApi, TypedOpsCompleteWithQuorumVerifiedResults) {
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(1)
                    .with_batch(4)
                    .with_pipeline_depth(2)
                    .with_seed(11);
  auto service = make_service(GetParam(), config);
  service->start();
  ClientSession& session = service->session(0);

  Reply put = must_complete(*service, session.put("acct", "100"));
  EXPECT_EQ(put.op, OpKind::Put);
  EXPECT_GT(put.slot, 0u);
  EXPECT_TRUE(put.result.ok);

  Reply read = must_complete(*service, session.get("acct"));
  EXPECT_EQ(read.op, OpKind::Get);
  EXPECT_TRUE(read.result.found);
  EXPECT_EQ(read.result.value, "100");

  // Reads are linearized through the log: the read's slot is strictly
  // after the put that wrote the value it returned.
  EXPECT_GT(read.slot, put.slot);

  Reply cas_ok = must_complete(*service, session.cas("acct", "100", "250"));
  EXPECT_TRUE(cas_ok.result.ok);
  Reply cas_stale = must_complete(*service, session.cas("acct", "100", "9"));
  EXPECT_FALSE(cas_stale.result.ok) << "stale expectation must fail";
  Reply after = must_complete(*service, session.get("acct"));
  EXPECT_EQ(after.result.value, "250");

  Reply del = must_complete(*service, session.del("acct"));
  EXPECT_TRUE(del.result.found);
  Reply gone = must_complete(*service, session.get("acct"));
  EXPECT_FALSE(gone.result.found);

  EXPECT_EQ(session.completed(), 7u);
  EXPECT_EQ(session.in_flight(), 0u);
  // Completion proves f + 1 replicas executed; wait for the rest before
  // the store-agreement audit.
  EXPECT_TRUE(service->await_applied(7, 20'000ms));
  service->stop();
  EXPECT_TRUE(service->stores_agree());
}

TEST_P(ServiceApi, CrashedFollowerCostsNoRetry) {
  // Sessions send every request to all n replicas, so a crashed replica
  // that is not the slot's leader costs a request nothing: the put
  // completes without a single timeout. Session 1 pairs with p1 because
  // p1 relayed its requests when each session entered through one
  // replica; the crash then cost a retry.
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(2)
                    // p1 never leads view 1 under pinned leaders.
                    .with_rotating_leaders(false)
                    .with_seed(7);
  auto service = make_service(GetParam(), config);
  service->start();
  ClientSession& session = service->session(1);

  Reply warm = must_complete(*service, session.put("k", "before"));
  EXPECT_TRUE(warm.result.ok);

  service->crash(1);
  Reply reply = must_complete(*service, session.put("k", "after"));
  EXPECT_EQ(reply.op, OpKind::Put);
  Reply read = must_complete(*service, session.get("k"));
  EXPECT_EQ(read.result.value, "after");
  EXPECT_EQ(session.failovers(), 0u) << "a request waited for a retry";

  EXPECT_TRUE(service->await_applied(3, 20'000ms));
  service->stop();
  EXPECT_TRUE(service->stores_agree());
}

TEST_P(ServiceApi, DuplicateRetriesApplyAtMostOnce) {
  // Retry-race regression: an aggressive request timeout makes the
  // session re-send to every replica while the original request is still
  // in flight, so replicas see duplicate SMR_REQUESTs. The
  // (client_id, sequence) dedup must keep every apply at-most-once — the
  // CAS chain would break (ok=false) if any command executed twice, and
  // the replicas' applied counters would exceed the distinct-request
  // count.
  const bool sim = GetParam() == Backend::kSim;
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(1)
                    .with_seed(13)
                    // Far below the decision latency (four link delays),
                    // so retries are guaranteed to race the original.
                    .with_request_timeout(sim ? 250 : 600);
  if (!sim) config.with_link_delay(300us);
  auto service = make_service(GetParam(), config);
  service->start();
  ClientSession& session = service->session(0);

  Reply put = must_complete(*service, session.put("ctr", "0"));
  EXPECT_TRUE(put.result.ok);
  Reply c1 = must_complete(*service, session.cas("ctr", "0", "1"));
  EXPECT_TRUE(c1.result.ok) << "a double-applied predecessor breaks CAS";
  Reply c2 = must_complete(*service, session.cas("ctr", "1", "2"));
  EXPECT_TRUE(c2.result.ok);
  Reply read = must_complete(*service, session.get("ctr"));
  EXPECT_EQ(read.result.value, "2");

  EXPECT_GE(session.failovers(), 1u)
      << "the timeout never fired — the race this test exists for did "
         "not happen; tighten request_timeout";

  // Every correct replica applied exactly the 4 distinct commands, no
  // matter how many duplicate requests the retries injected.
  EXPECT_TRUE(service->await_applied(4, 20'000ms));
  service->stop();
  for (ProcessId id = 0; id < service->quorum().n; ++id) {
    EXPECT_EQ(service->applied_commands(id), 4u) << "p" << id;
  }
  EXPECT_TRUE(service->stores_agree());
}

// --- Direct request path (simulator) ----------------------------------------

TEST(DirectRequests, LonePutCompletesInFourDelays) {
  // Request, propose, ack, reply: on lock-step links a lone put completes
  // in exactly 4 * delta whichever replica leads its slot. A relay hop
  // would add a fifth delay on every slot it does not lead.
  for (bool rotate : {false, true}) {
    SCOPED_TRACE(rotate ? "rotating leaders" : "pinned leaders");
    auto config = ServiceConfig{}
                      .with_cluster(4, 1, 1)
                      .with_sessions(2)
                      .with_rotating_leaders(rotate)
                      .with_seed(5);
    config.smr.eager_windows = false;
    config.sim_net.delta = 100;
    config.sim_net.min_delay = 100;
    auto service = make_sim_service(config);
    service->start();
    sim::Scheduler& sched = service->sim_network()->scheduler();
    std::set<Slot> leaders;  // slot % n: the view-1 leader's class
    for (std::uint32_t i = 0; i < 8; ++i) {
      ClientSession& session = service->session(i % 2);
      const TimePoint sent = sched.now();
      TimePoint done = 0;
      auto put = session.put("k" + std::to_string(i), "v");
      put.on_ready([&](const Reply&) { done = sched.now(); });
      ASSERT_TRUE(service->await(put, 1'000ms));
      EXPECT_EQ(done - sent, 4 * config.sim_net.delta) << "put " << i;
      leaders.insert(put.value().slot % 4);
      // Idle until the next put so every put is a lone one.
      service->run_until([] { return false; }, 2ms);
    }
    if (rotate) {
      EXPECT_GT(leaders.size(), 1u) << "slots never rotated";
    }
    EXPECT_EQ(service->session(0).failovers(), 0u);
    EXPECT_EQ(service->session(1).failovers(), 0u);
  }
}

TEST(DirectRequests, ClientEndpointCannotSpeakForAnotherSession) {
  // A rogue client endpoint (session 1's id) submits a put under session
  // 0's id and next sequence. Replicas must drop it: otherwise the
  // (client_id, sequence) dedup discards session 0's real put as a
  // duplicate of the forged one.
  auto config =
      ServiceConfig{}.with_cluster(4, 1, 1).with_sessions(2).with_seed(9);
  auto service = make_sim_service(config);
  service->start();
  const ProcessId victim = service->session(0).id();
  auto rogue = service->sim_network()->endpoint(service->session(1).id());
  rogue->broadcast(SmrNode::encode_request(
      Command::put("k", "forged", victim, /*sequence=*/1)));
  service->run_until([] { return false; }, 5ms);

  ClientSession& session = service->session(0);
  Reply put = must_complete(*service, session.put("k", "mine"));
  EXPECT_TRUE(put.result.ok);
  Reply read = must_complete(*service, session.get("k"));
  EXPECT_EQ(read.result.value, "mine");
  EXPECT_TRUE(service->await_applied(2, 20'000ms));
  for (ProcessId id = 0; id < service->quorum().n; ++id) {
    EXPECT_EQ(service->applied_commands(id), 2u) << "p" << id;
  }
}

TEST_P(ServiceApi, WindowedSessionsRunConcurrently) {
  // Two sessions, each submitting a burst past its window: the session
  // queues the overflow internally and drains it as completions free
  // slots; all requests complete and the stores converge.
  constexpr std::uint64_t kPerSession = 8;
  auto config = ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(2)
                    .with_window(2)
                    .with_batch(4)
                    .with_pipeline_depth(4)
                    .with_seed(17);
  auto service = make_service(GetParam(), config);
  service->start();

  std::vector<Future<Reply>> futures;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t i = 1; i <= kPerSession; ++i) {
      futures.push_back(service->session(s).put(
          "s" + std::to_string(s) + "-k" + std::to_string(i),
          "v" + std::to_string(i)));
    }
  }
  bool all_done = service->run_until(
      [&] {
        for (const auto& f : futures) {
          if (!f.ready()) return false;
        }
        return true;
      },
      30'000ms);
  ASSERT_TRUE(all_done);

  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(service->session(s).completed(), kPerSession);
    EXPECT_EQ(service->session(s).queued(), 0u);
  }
  Reply probe = must_complete(*service, service->session(0).get("s1-k3"));
  EXPECT_EQ(probe.result.value, "v3");

  EXPECT_TRUE(service->await_applied(2 * kPerSession + 1, 30'000ms));
  service->stop();
  EXPECT_TRUE(service->stores_agree());
  for (ProcessId id = 0; id < service->quorum().n; ++id) {
    EXPECT_EQ(service->applied_commands(id), 2 * kPerSession + 1)
        << "p" << id;
  }
}

TEST_P(ServiceApi, QuorumShapesDecideDespiteCrashedFollowers) {
  // The paper's quorum shapes, each with crash-before-start followers
  // (p0 leads every slot: leaders are pinned). (7, 2, 1) with two crashed
  // leaves 5 correct replicas, below the fast-path quorum n - t = 6, so
  // only the slow path (commit quorum 5) can decide there.
  struct Shape {
    std::uint32_t n, f, t;
    std::vector<ProcessId> crashed;
  };
  const Shape shapes[] = {
      {4, 1, 1, {}}, {14, 3, 3, {}}, {9, 2, 2, {4, 8}}, {7, 2, 1, {5, 6}}};
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("n=" + std::to_string(shape.n) +
                   " f=" + std::to_string(shape.f) +
                   " t=" + std::to_string(shape.t) +
                   " seed=" + std::to_string(seed));
      auto config = ServiceConfig{}
                        .with_cluster(shape.n, shape.f, shape.t)
                        .with_rotating_leaders(false)
                        .with_seed(seed);
      auto service = make_service(GetParam(), config);
      for (ProcessId id : shape.crashed) service->crash(id);
      service->start();
      ClientSession& session = service->session(0);

      const std::string value = "v" + std::to_string(seed);
      EXPECT_TRUE(must_complete(*service, session.put("k", value)).result.ok);
      EXPECT_EQ(must_complete(*service, session.get("k")).result.value,
                value);
      EXPECT_TRUE(service->await_applied(2, 20'000ms));
      service->stop();
      EXPECT_TRUE(service->stores_agree());
      for (ProcessId id : shape.crashed) EXPECT_TRUE(service->is_faulty(id));
    }
  }
}

// --- Envelope pooling (threaded transport) -----------------------------------

TEST(ThreadedNetworkPool, SteadyStateReusesEnvelopeNodes) {
  // One sender, one receiver, strictly sequential sends: after the first
  // few deliveries the inbox recycles its retired queue nodes, so the
  // fresh-allocation count plateaus while reuses track the traffic.
  net::ThreadedNetwork net(2);
  std::atomic<std::uint64_t> received{0};
  net.attach(0, [](ProcessId, const Bytes&) {});
  net.attach(1, [&](ProcessId, const Bytes&) { received.fetch_add(1); });
  auto endpoint = net.endpoint(0);
  net.start();

  const std::uint64_t kMessages = 400;
  std::uint64_t allocs_before = net::PayloadStats::envelope_allocs();
  std::uint64_t reuses_before = net::PayloadStats::envelope_reuses();
  for (std::uint64_t i = 1; i <= kMessages; ++i) {
    endpoint->send(1, Bytes{0x01});
    // Sequential: wait for delivery so the node returns to the pool.
    while (received.load() < i) std::this_thread::yield();
  }
  net.stop();

  std::uint64_t allocs = net::PayloadStats::envelope_allocs() - allocs_before;
  std::uint64_t reuses = net::PayloadStats::envelope_reuses() - reuses_before;
  EXPECT_EQ(allocs + reuses, kMessages);
  EXPECT_LE(allocs, 4u) << "steady-state sends must draw from the pool";
  EXPECT_GE(reuses, kMessages - 4);
}

}  // namespace
}  // namespace fastbft::smr
