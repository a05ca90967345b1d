#pragma once

#include <chrono>
#include <functional>
#include <memory>

#include "net/sim_network.hpp"
#include "net/socket_network.hpp"
#include "smr/session.hpp"
#include "smr/smr_node.hpp"

/// \file service.hpp
/// The unified client API of the replicated KV service: one facade,
/// smr::Service, that stands up a whole cluster (replicas, network, key
/// material, client endpoints) behind a fluent ServiceConfig and exposes
/// it exclusively through smr::ClientSession — typed put/get/del/cas
/// operations completing per-request Futures on an f + 1 quorum of
/// signed, matching replica replies.
///
/// The same session code runs on three substrates behind this one facade;
/// the factory picks the substrate:
///  * make_sim_service — the deterministic simulator (runtime::Cluster).
///    Drive progress with run_until; simulated time, reproducible runs.
///  * make_threaded_service — real OS threads and wall-clock time: one
///    net::ThreadedNetwork event loop per replica and per session, each
///    replica an SmrNode over an engine::LoopHost. Futures are blockable;
///    run_until sleeps until a replica has applied commands.
///  * make_socket_service — the same wall-clock wiring over TCP
///    (net::SocketNetwork), one OS process per deployment: each process
///    builds the service from the same ServiceConfig and runs only the
///    replicas and sessions its SocketDeployment names
///    (tools/smr_server, tools/smr_client, bench E15).
///
/// Lifecycle: configure -> construct (sessions exist immediately) ->
/// start() -> submit through sessions / crash() / restart() -> stop().
/// See docs/CLIENT_API.md for the full contract (reply quorum rule,
/// retries, at-most-once dedup).

namespace fastbft::smr {

struct ServiceConfig {
  consensus::QuorumConfig cluster = consensus::QuorumConfig{4, 1, 1};
  std::uint32_t num_sessions = 1;

  /// Replication tuning (batching, pipelining, snapshots, leader
  /// rotation, per-slot consensus knobs).
  SmrOptions smr;

  /// Per-request completion timeout in host ticks (simulator ticks / µs
  /// wall-clock); 0 picks a runtime-appropriate default. On expiry the
  /// session re-sends the request to every replica.
  Duration request_timeout = 0;

  /// Total per-request budget in host ticks (0 = unlimited): a request
  /// still unresolved after this long completes with
  /// Reply::Status::Timeout instead of retrying forever
  /// (SessionConfig::request_deadline).
  Duration request_deadline = 0;

  /// Per-session submission window (bounded in-flight backpressure).
  std::uint32_t max_in_flight = 8;

  /// TEST HOOK: complete requests on the first valid reply instead of the
  /// f + 1 quorum (SessionConfig::unsafe_first_reply_quorum). Breaks BFT
  /// on purpose so the chaos checker has a real bug to catch.
  bool unsafe_first_reply_quorum = false;

  /// Simulator runtime only: per-replica SmrOptions override, called once
  /// per replica at construction. The chaos harness uses this to flip
  /// SmrOptions::byzantine hooks on selected replicas. It must leave
  /// SmrOptions::pipeline_depth unchanged (asserted): every replica
  /// derives the leader schedule from it.
  std::function<void(ProcessId, SmrOptions&)> tune_replica;

  std::uint64_t key_seed = 42;

  /// Simulator runtime only: network model (Delta, jitter, seed).
  net::SimNetworkConfig sim_net;

  /// Wall-clock runtimes only: one-way link delay (the threaded LAN model;
  /// on TCP the emulated latency, which must match in every process) and
  /// the view-change timeout.
  std::chrono::microseconds link_delay{0};
  Duration sync_base_timeout_us = 25'000;

  // --- Fluent builder --------------------------------------------------------

  ServiceConfig& with_cluster(std::uint32_t n, std::uint32_t f,
                              std::uint32_t t) {
    cluster = consensus::QuorumConfig::create(n, f, t);
    return *this;
  }
  ServiceConfig& with_sessions(std::uint32_t count) {
    num_sessions = count;
    return *this;
  }
  ServiceConfig& with_pipeline_depth(std::uint32_t depth) {
    smr.pipeline_depth = depth;
    return *this;
  }
  ServiceConfig& with_batch(std::uint32_t max_batch) {
    smr.max_batch = max_batch;
    return *this;
  }
  ServiceConfig& with_snapshots(std::uint64_t interval) {
    smr.snapshot_interval = interval;
    return *this;
  }
  ServiceConfig& with_rotating_leaders(bool rotate = true) {
    smr.rotate_leaders = rotate;
    return *this;
  }
  /// Hash-partition the keyspace over `shards` consensus groups (sharded
  /// SMR; sessions route per key, replicas host one engine per group).
  ServiceConfig& with_shards(std::uint32_t shards) {
    smr.num_groups = shards;
    return *this;
  }
  ServiceConfig& with_request_timeout(Duration ticks) {
    request_timeout = ticks;
    return *this;
  }
  ServiceConfig& with_deadline(Duration ticks) {
    request_deadline = ticks;
    return *this;
  }
  ServiceConfig& with_window(std::uint32_t in_flight) {
    max_in_flight = in_flight;
    return *this;
  }
  ServiceConfig& with_link_delay(std::chrono::microseconds delay) {
    link_delay = delay;
    return *this;
  }
  ServiceConfig& with_seed(std::uint64_t seed) {
    key_seed = seed;
    sim_net.seed = seed;
    return *this;
  }
  ServiceConfig& with_unsafe_first_reply_quorum(bool unsafe = true) {
    unsafe_first_reply_quorum = unsafe;
    return *this;
  }
  ServiceConfig& with_tune_replica(
      std::function<void(ProcessId, SmrOptions&)> tune) {
    tune_replica = std::move(tune);
    return *this;
  }
};

class Service {
 public:
  virtual ~Service() = default;

  /// Boots the cluster. Sessions exist (and may queue submissions) from
  /// construction; nothing executes until start().
  virtual void start() = 0;

  /// Shuts the cluster down (joins threads on the wall-clock runtimes).
  /// Store introspection (stores_agree) is safe after this.
  virtual void stop() = 0;

  /// The sessions this process hosts, in endpoint-id order: all of
  /// them, except on a socket service, which hosts only the sessions its
  /// deployment names.
  virtual ClientSession& session(std::uint32_t index) = 0;
  virtual std::uint32_t num_sessions() const = 0;

  /// Fail-stop a replica before start() or mid-run, and crash-recover it
  /// mid-run (in-process fault injection; sessions reach every replica,
  /// so a crashed one costs them nothing). A socket service asserts:
  /// there, kill the replica's process instead.
  virtual void crash(ProcessId replica) = 0;
  virtual void restart(ProcessId replica) = 0;

  /// Drives the service until done() returns true or ~`budget` elapses;
  /// returns done()'s final verdict. On the simulator this steps the
  /// scheduler (1 ms of budget = 1000 simulated ticks); on the wall-clock
  /// runtimes it re-checks done() when a hosted replica receives a
  /// message after applying commands, and at least every millisecond.
  /// done() must be safe to call from the driving thread.
  virtual bool run_until(std::function<bool()> done,
                         std::chrono::milliseconds budget) = 0;

  /// Convenience: drive until `future` completes.
  bool await(const Future<Reply>& future, std::chrono::milliseconds budget) {
    return run_until([&future] { return future.ready(); }, budget);
  }

  virtual const consensus::QuorumConfig& quorum() const = 0;

  // --- Introspection (tests, benchmarks) -------------------------------------
  // A socket service answers per-replica queries only for the replicas it
  // hosts (asserted); await_applied() therefore needs every replica.

  /// Commands replica `id` applied so far (thread-safe on every runtime).
  virtual std::uint64_t applied_commands(ProcessId replica) const = 0;

  /// Live engine observability for one replica — the pipeline depth and
  /// batch it runs, the reorder-backlog high-water / clamp-stall counters
  /// and the catch-up and view-change counters. Thread-safe on every
  /// runtime while the service runs.
  virtual SmrNode::EngineStats engine_stats(ProcessId replica) const = 0;

  /// True iff `replica` crashed (and, on the sim runtime, was not yet
  /// counted back in) — the replicas stores_agree() skips.
  virtual bool is_faulty(ProcessId replica) const = 0;

  /// Convenience: drive until every correct replica applied at least
  /// `commands` distinct commands — the convergence barrier to cross
  /// before store-agreement checks (request completion only proves f + 1
  /// replicas executed).
  bool await_applied(std::uint64_t commands, std::chrono::milliseconds budget) {
    return run_until(
        [this, commands] {
          for (ProcessId id = 0; id < quorum().n; ++id) {
            if (is_faulty(id)) continue;
            if (applied_commands(id) < commands) return false;
          }
          return true;
        },
        budget);
  }

  /// True iff every correct hosted replica's KV store digest matches.
  /// Wall-clock runtimes: only valid after stop().
  virtual bool stores_agree() const = 0;

  /// Replica `id` itself (engine window, catch-up policy, KV store, and
  /// on_message for pre-start request injection). Simulator: exists from
  /// start() on. Wall-clock runtimes: only before start() or after stop(),
  /// while no loop thread runs (asserted).
  virtual SmrNode& replica(ProcessId id) = 0;

  /// Messages the network carried so far (wall-clock: delivered to this
  /// process's endpoints; simulator: NetworkStats::total_messages).
  virtual std::uint64_t delivered_messages() const = 0;

  /// Simulator runtime only: the underlying SimNetwork (fault hooks,
  /// observers, scheduler). nullptr on the wall-clock runtimes — the chaos
  /// harness (src/chaos) requires a sim service and checks this.
  virtual net::SimNetwork* sim_network() { return nullptr; }

  /// Socket runtime only: the underlying SocketNetwork (per-link
  /// counters, stats dump). nullptr on the other runtimes.
  virtual net::SocketNetwork* socket_network() { return nullptr; }
};

/// Where one socket-service process sits in the cluster. Every process
/// builds its service from the same ServiceConfig plus its own
/// deployment.
struct SocketDeployment {
  /// Address of every endpoint: replicas 0..n-1, then sessions n..
  /// n+num_sessions-1 (sessions need no listen address). Identical in
  /// every process, except that a process may hand a hosted replica an
  /// already-listening fd (SocketPeer::adopted_listen_fd).
  std::vector<net::SocketPeer> peers;

  /// Endpoint ids this process runs: replicas, sessions or both.
  std::vector<ProcessId> hosted;
};

/// Deterministic-simulator service.
std::unique_ptr<Service> make_sim_service(const ServiceConfig& config);

/// Real-threads, wall-clock service.
std::unique_ptr<Service> make_threaded_service(const ServiceConfig& config);

/// Wall-clock service over TCP, running the endpoints `deployment` hosts.
std::unique_ptr<Service> make_socket_service(const ServiceConfig& config,
                                             SocketDeployment deployment);

}  // namespace fastbft::smr
