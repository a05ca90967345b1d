#include "runtime/threaded_smr_cluster.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"

namespace fastbft::runtime {

ThreadedSmrCluster::ThreadedSmrCluster(consensus::QuorumConfig cfg,
                                       ThreadedSmrClusterOptions options)
    : cfg_(cfg),
      options_(std::move(options)),
      net_(cfg.n, net::ThreadedNetworkConfig{options_.link_delay},
           options_.num_clients),
      keys_(std::make_shared<const crypto::KeyStore>(options_.key_seed,
                                                     cfg.n)),
      leader_of_(consensus::round_robin_leader(cfg.n)),
      smr_options_(options_.smr),
      applied_count_(cfg.n, std::vector<std::uint64_t>(
                                std::max(1u, options_.smr.num_groups), 0)),
      applied_slots_(cfg.n,
                     std::vector<std::vector<Slot>>(
                         std::max(1u, options_.smr.num_groups))),
      snapshot_installs_(cfg.n, 0),
      faulty_(cfg.n, false) {
  smr_options_.node.sync.base_timeout = options_.sync_base_timeout_us;
  smr_options_.num_clients = options_.num_clients;

  for (ProcessId id = 0; id < cfg.n; ++id) {
    hosts_.push_back(std::make_unique<engine::LoopHost>(net_.loop(id)));
    nodes_.push_back(make_node(id));
    stats_nodes_.push_back(nodes_.back().get());
    // The handler reads nodes_[id] at delivery time, so restart() can swap
    // in a fresh node (on this same delivery thread) without re-attaching.
    net_.attach(id, [this, id](ProcessId from, const Bytes& payload) {
      nodes_[id]->on_message(from, payload);
    });
  }
}

std::unique_ptr<smr::SmrNode> ThreadedSmrCluster::make_node(ProcessId id) {
  engine::EngineContext ectx{cfg_, id, keys_, leader_of_, /*group=*/0,
                             /*stats=*/nullptr, /*verify_cache=*/nullptr};
  auto node = std::make_unique<smr::SmrNode>(
      *hosts_[id], std::move(ectx), net_.endpoint(id), smr_options_,
      [this](ProcessId pid, GroupId group, Slot slot,
             const std::vector<smr::Command>& commands) {
        std::lock_guard<std::mutex> lock(mutex_);
        applied_count_[pid][group] += commands.size();
        applied_slots_[pid][group].push_back(slot);
        applied_cv_.notify_all();
      });
  node->set_install_callback(
      [this](ProcessId pid, GroupId group, const smr::Snapshot& snap) {
        std::lock_guard<std::mutex> lock(mutex_);
        // The snapshot subsumes every command below its boundary in this
        // group; the commit callback keeps adding the slots applied after
        // it.
        applied_count_[pid][group] =
            std::max(applied_count_[pid][group], snap.applied_commands);
        ++snapshot_installs_[pid];
        applied_cv_.notify_all();
      });
  return node;
}

ThreadedSmrCluster::~ThreadedSmrCluster() { stop(); }

void ThreadedSmrCluster::crash(ProcessId id) {
  FASTBFT_ASSERT(id < cfg_.n, "crash: id out of range");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    faulty_[id] = true;
    applied_cv_.notify_all();
  }
  net_.disconnect(id);
}

void ThreadedSmrCluster::restart(ProcessId id) {
  FASTBFT_ASSERT(id < cfg_.n, "restart: id out of range");
  FASTBFT_ASSERT(started_ && !stopped_, "restart: only mid-run");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FASTBFT_ASSERT(faulty_[id], "restart: process never crashed");
    // The fresh incarnation's log starts empty; it re-earns its applied
    // count through snapshot install + catch-up, and from here on the
    // wait/agreement accounting holds it to the correct-replica bar.
    for (auto& count : applied_count_[id]) count = 0;
    for (auto& slots : applied_slots_[id]) slots.clear();
    faulty_[id] = false;
  }
  // The swap, the reconnect and start() all run on `id`'s own delivery
  // thread: the old node is destroyed where its timers live (same-thread
  // contract), and no message can reach the fresh node before it exists.
  // While still disconnected the loop only runs posted tasks, so the
  // reconnect-inside-the-task ordering is race-free.
  net_.loop(id).post([this, id] {
    auto fresh = make_node(id);
    {
      // Republish the stats pointer BEFORE destroying the old node:
      // engine_stats() dereferences stats_nodes_[id] under this mutex, so
      // once the lock is released no reader can still hold the old node.
      std::lock_guard<std::mutex> lock(mutex_);
      stats_nodes_[id] = fresh.get();
    }
    nodes_[id] = std::move(fresh);
    net_.reconnect(id);
    nodes_[id]->start();
  });
}

void ThreadedSmrCluster::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  // Seed while no delivery thread runs: the initial slot windows open,
  // proposals queue into the inboxes and view-1 timers arm, all
  // single-threaded. Crashed-before-start processes are seeded too; their
  // traffic and timers are simply never serviced.
  for (auto& node : nodes_) {
    node->start();
  }
  net_.start();
}

void ThreadedSmrCluster::stop() {
  net_.stop();
  stopped_ = true;
}

void ThreadedSmrCluster::submit(const smr::Command& cmd, ProcessId gateway) {
  FASTBFT_ASSERT(gateway < cfg_.n, "submit: gateway out of range");
  if (!started_) {
    // Synchronous pre-start injection into every pending queue, so the
    // first window's proposals already carry real batches instead of
    // noops (exactly what SMR_REQUEST broadcast would deliver, minus the
    // wire hop).
    Bytes payload = smr::SmrNode::encode_request(cmd);
    for (auto& node : nodes_) {
      node->on_message(gateway, payload);
    }
    return;
  }
  nodes_[gateway]->submit(cmd);
}

bool ThreadedSmrCluster::wait_applied(std::uint64_t commands,
                                      std::chrono::milliseconds timeout) {
  auto total = [&](ProcessId id) {
    std::uint64_t sum = 0;
    for (std::uint64_t count : applied_count_[id]) sum += count;
    return sum;
  };
  std::unique_lock<std::mutex> lock(mutex_);
  return applied_cv_.wait_for(lock, timeout, [&] {
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      if (faulty_[id]) continue;
      if (total(id) < commands) return false;
    }
    return true;
  });
}

std::uint64_t ThreadedSmrCluster::applied_commands(ProcessId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (std::uint64_t count : applied_count_[id]) sum += count;
  return sum;
}

std::vector<Slot> ThreadedSmrCluster::applied_slots(ProcessId id,
                                                    GroupId group) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applied_slots_[id][group];
}

std::uint64_t ThreadedSmrCluster::timers_fired() {
  std::uint64_t sum = 0;
  for (ProcessId id = 0; id < net_.total_size(); ++id) {
    sum += net_.loop(id).timers_fired();
  }
  return sum;
}

bool ThreadedSmrCluster::is_faulty(ProcessId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faulty_[id];
}

std::uint64_t ThreadedSmrCluster::snapshots_installed(ProcessId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_installs_[id];
}

smr::SmrNode::EngineStats ThreadedSmrCluster::engine_stats(
    ProcessId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_nodes_[id]->engine_stats();
}

bool ThreadedSmrCluster::correct_stores_agree() const {
  FASTBFT_ASSERT(stopped_, "store introspection only after stop()");
  std::optional<crypto::Digest> first;
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    if (faulty_[id]) continue;
    crypto::Digest digest = nodes_[id]->state_digest();
    if (!first) {
      first = digest;
    } else if (digest != *first) {
      return false;
    }
  }
  return true;
}

}  // namespace fastbft::runtime
