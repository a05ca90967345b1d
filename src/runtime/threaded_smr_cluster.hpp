#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <vector>

#include "engine/loop_host.hpp"
#include "net/threaded_network.hpp"
#include "smr/smr_node.hpp"

/// \file threaded_smr_cluster.hpp
/// Pipelined, leader-rotating, view-changing state machine replication
/// over real OS threads and wall-clock time: the host-agnostic SMR engine
/// (engine::SlotMux and friends) running on one engine::LoopHost per
/// process. Each process's consensus instances, view synchronizers and
/// timers all execute on its single event-loop thread, so protocol code
/// is identical to the simulator runs — only the Host changes.
///
/// Unlike runtime::ThreadedCluster (single-shot, no clock source, fast
/// path only), this cluster has wall-clock timers, so a crashed leader is
/// survived by view change exactly as on the simulator — just with real
/// microseconds instead of scripted Delta.
///
/// Threading model: delivery threads run the nodes; the driver thread
/// (tests/benchmarks) only touches the thread-safe surface — submit(),
/// crash(), wait_*(), and the snapshot accessors. Per-node engine/KV
/// introspection (node(), digests) is safe only before start() or after
/// stop(), when no delivery thread is running.

namespace fastbft::runtime {

struct ThreadedSmrClusterOptions {
  smr::SmrOptions smr;

  /// Fixed one-way delivery delay between distinct processes — models a
  /// LAN link so wall-clock pipelining numbers measure protocol overlap,
  /// not mutex turnaround.
  std::chrono::microseconds link_delay{0};

  /// View-synchronizer base timeout in wall-clock microseconds (overrides
  /// smr.node.sync.base_timeout, whose simulator-tick default of 1200 is
  /// meaningless on this host). Must comfortably exceed a few slot
  /// round-trips, including sanitizer slowdowns.
  Duration sync_base_timeout_us = 25'000;

  /// Client endpoints beyond the n replicas (ids n .. n + clients - 1),
  /// each with its own delivery thread. Overrides smr.num_clients (the
  /// two must agree — replicas address replies by endpoint id). The
  /// service facade attaches smr::ClientSessions to them before start().
  std::uint32_t num_clients = 0;

  std::uint64_t key_seed = 42;
};

class ThreadedSmrCluster {
 public:
  ThreadedSmrCluster(consensus::QuorumConfig cfg,
                     ThreadedSmrClusterOptions options);
  ~ThreadedSmrCluster();

  ThreadedSmrCluster(const ThreadedSmrCluster&) = delete;
  ThreadedSmrCluster& operator=(const ThreadedSmrCluster&) = delete;

  /// Fail-stop a process, before or mid-run. Marks it faulty for the
  /// wait/agreement accounting. Thread-safe.
  void crash(ProcessId id);

  /// Crash-recovery, mid-run: a previously crash()ed process rejoins as a
  /// FRESH SmrNode with empty volatile state — recovering it is the
  /// protocol's job (decided-value catch-up, and KV snapshot state
  /// transfer once snapshot_interval is set; docs/CATCHUP.md). Clears the
  /// faulty mark, so wait_applied() and correct_stores_agree() hold the
  /// rejoined replica to the same bar as everyone else. The node swap and
  /// start() run on the process's own loop thread (via a posted task) to
  /// honour the same-thread timer contract.
  /// Thread-safe.
  void restart(ProcessId id);

  /// Opens every node's initial slot window (single-threaded seeding),
  /// then spawns the delivery threads.
  void start();

  /// Joins all delivery threads. Called by the destructor; after it the
  /// per-node accessors are safe again.
  void stop();

  /// Client entry point. Before start(): injected synchronously into every
  /// node's pending queue (single-threaded). After: broadcast as an
  /// SMR_REQUEST from `gateway`'s endpoint (thread-safe; a crashed gateway
  /// drops the request).
  void submit(const smr::Command& cmd, ProcessId gateway = 0);

  /// Blocks until every non-crashed process applied >= `commands`
  /// commands, or the timeout elapses. Returns true on success.
  bool wait_applied(std::uint64_t commands,
                    std::chrono::milliseconds timeout);

  // --- Thread-safe snapshots -------------------------------------------------

  /// Applied commands summed over every group this process hosts.
  std::uint64_t applied_commands(ProcessId id) const;

  /// Slots in the order this process applied them in `group` (the
  /// in-order-apply property holds iff this is 1, 2, 3, ... per group).
  std::vector<Slot> applied_slots(ProcessId id, GroupId group = 0) const;

  bool is_faulty(ProcessId id) const;
  std::uint64_t delivered_messages() const { return net_.delivered_count(); }
  /// Timers fired across every process's loop.
  std::uint64_t timers_fired();

  /// Snapshots this process installed via state transfer (counted across
  /// restarts).
  std::uint64_t snapshots_installed(ProcessId id) const;

  /// Live engine observability (effective depth/batch, adaptive backoffs,
  /// reorder high-water) for a running process. Reads relaxed atomics
  /// through a mutex_-guarded node pointer, so it is safe concurrently
  /// with delivery threads AND with restart() (which republishes the
  /// pointer under the same mutex). A crashed process reports its last
  /// incarnation's values.
  smr::SmrNode::EngineStats engine_stats(ProcessId id) const;

  // --- Pre-start / post-stop introspection ----------------------------------

  /// The node itself (engine window, catch-up policy, KV store). Only
  /// while no delivery thread runs.
  smr::SmrNode& node(ProcessId id) { return *nodes_[id]; }
  const smr::SmrNode& node(ProcessId id) const { return *nodes_[id]; }

  /// True iff every correct process's cross-group state digest is
  /// identical. Meaningful after a successful wait_applied (all correct
  /// processes applied the same command set); only valid after stop().
  bool correct_stores_agree() const;

  const consensus::QuorumConfig& config() const { return cfg_; }

  /// The transport (client endpoint attachment, introspection). Client
  /// handlers must be attached before start().
  net::ThreadedNetwork& net() { return net_; }

  /// Cluster key material (client sessions verify reply signatures).
  std::shared_ptr<const crypto::KeyStore> keys() const { return keys_; }

 private:
  /// Builds a fresh SmrNode for `id` (constructor only — no timers armed,
  /// so it is safe on the setup thread and on the delivery thread alike).
  std::unique_ptr<smr::SmrNode> make_node(ProcessId id);

  consensus::QuorumConfig cfg_;
  ThreadedSmrClusterOptions options_;
  net::ThreadedNetwork net_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  consensus::LeaderFn leader_of_;
  smr::SmrOptions smr_options_;  // resolved (wall-clock sync timeout applied)
  std::vector<std::unique_ptr<engine::LoopHost>> hosts_;
  std::vector<std::unique_ptr<smr::SmrNode>> nodes_;

  mutable std::mutex mutex_;
  std::condition_variable applied_cv_;
  /// Per-process, per-group applied-command counts ([id][group]); totals
  /// are summed on read so multi-group snapshot installs (which reset one
  /// group's count, not the node's) stay correct.
  std::vector<std::vector<std::uint64_t>> applied_count_;
  /// Per-process, per-group applied slot order ([id][group]).
  std::vector<std::vector<std::vector<Slot>>> applied_slots_;
  std::vector<std::uint64_t> snapshot_installs_;
  std::vector<bool> faulty_;
  /// nodes_[id] raw pointers republished under mutex_: nodes_ itself is
  /// only touched on delivery threads mid-run (restart swap), so the
  /// stats reader needs its own synchronized view of the live node.
  std::vector<smr::SmrNode*> stats_nodes_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace fastbft::runtime
