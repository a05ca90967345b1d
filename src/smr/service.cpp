#include "smr/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <optional>
#include <type_traits>

#include "common/assert.hpp"
#include "engine/loop_host.hpp"
#include "net/threaded_network.hpp"
#include "runtime/cluster.hpp"

namespace fastbft::smr {

namespace {

/// Runtime-appropriate request timeouts when the config leaves 0: a
/// healthy request completes in a handful of message delays; the timeout
/// must also ride out one view change of a stalled slot before retrying
/// (simulator base_timeout 1200 ticks / wall-clock 25 ms).
constexpr Duration kSimDefaultRequestTimeout = 6'000;        // ticks
constexpr Duration kWallClockDefaultRequestTimeout = 100'000; // µs

SessionConfig make_session_config(const ServiceConfig& config,
                                  Duration timeout,
                                  std::shared_ptr<const crypto::KeyStore> keys) {
  SessionConfig scfg;
  scfg.n = config.cluster.n;
  scfg.f = config.cluster.f;
  scfg.request_timeout = timeout;
  scfg.request_deadline = config.request_deadline;
  scfg.max_in_flight = config.max_in_flight;
  scfg.unsafe_first_reply_quorum = config.unsafe_first_reply_quorum;
  scfg.keys = std::move(keys);
  return scfg;
}

/// Digest agreement over the replicas `faulty` does not exclude.
template <typename NodeAt, typename Faulty>
bool digests_agree(std::uint32_t n, NodeAt node_at, Faulty faulty) {
  std::optional<crypto::Digest> first;
  for (ProcessId id = 0; id < n; ++id) {
    if (faulty(id)) continue;
    crypto::Digest digest = node_at(id).state_digest();
    if (!first) {
      first = digest;
    } else if (digest != *first) {
      return false;
    }
  }
  return true;
}

// --- Simulator backend -------------------------------------------------------

class SimService final : public Service {
 public:
  explicit SimService(ServiceConfig config) : config_(std::move(config)) {
    const auto& cfg = config_.cluster;
    FASTBFT_ASSERT(cfg.satisfies_bound(), "invalid quorum config");
    FASTBFT_ASSERT(config_.num_sessions >= 1, "a service needs sessions");

    runtime::ClusterOptions options;
    options.cfg = cfg;
    options.net = config_.sim_net;
    options.key_seed = config_.key_seed;
    options.extra_endpoints = config_.num_sessions;
    nodes_.resize(cfg.n, nullptr);
    options.node_factory = [this](const runtime::ProcessContext& ctx,
                                  const runtime::NodeOptions&,
                                  runtime::Node::DecideCallback) {
      SmrOptions tuned = config_.smr;
      if (config_.tune_replica) config_.tune_replica(ctx.id, tuned);
      FASTBFT_ASSERT(
          tuned.pipeline_depth == config_.smr.pipeline_depth,
          "tune_replica must keep pipeline_depth, the max_window_depth "
          "every replica derives the leader schedule from");
      engine::EngineContext ectx{ctx.cfg, ctx.id, ctx.keys, /*group=*/0,
                                 /*verify_cache=*/nullptr};
      auto node = std::make_unique<SmrNode>(*host_, std::move(ectx),
                                            ctx.network->endpoint(ctx.id),
                                            tuned, config_.num_sessions);
      nodes_[ctx.id] = node.get();
      return node;
    };
    cluster_ = std::make_unique<runtime::Cluster>(
        options, std::vector<Value>(cfg.n, Value::of_string("service")));
    host_ = std::make_unique<engine::SimHost>(cluster_->scheduler());

    Duration timeout = config_.request_timeout != 0
                           ? config_.request_timeout
                           : kSimDefaultRequestTimeout;
    for (std::uint32_t k = 0; k < config_.num_sessions; ++k) {
      ProcessId pid = cfg.n + k;
      auto session = std::make_unique<ClientSession>(
          *host_, cluster_->network().endpoint(pid),
          make_session_config(config_, timeout, cluster_->keys()));
      cluster_->network().attach(
          pid, [s = session.get()](ProcessId from, const Bytes& payload) {
            s->on_message(from, payload);
          });
      sessions_.push_back(std::move(session));
    }
  }

  void start() override {
    cluster_->start();
    started_ = true;
  }
  void stop() override {}

  ClientSession& session(std::uint32_t index) override {
    return *sessions_.at(index);
  }
  std::uint32_t num_sessions() const override {
    return static_cast<std::uint32_t>(sessions_.size());
  }

  void crash(ProcessId replica) override {
    if (started_) {
      cluster_->crash_now(replica);
    } else {
      cluster_->crash_at(replica, 0);
    }
  }
  void restart(ProcessId replica) override {
    cluster_->restart_now(replica);
  }

  bool run_until(std::function<bool()> done,
                 std::chrono::milliseconds budget) override {
    auto& sched = cluster_->scheduler();
    TimePoint limit = sched.now() + budget.count() * 1000;
    while (!done() && sched.now() <= limit) {
      if (!sched.step()) break;  // event queue drained
    }
    return done();
  }

  const consensus::QuorumConfig& quorum() const override {
    return cluster_->config();
  }

  std::uint64_t applied_commands(ProcessId replica) const override {
    return nodes_.at(replica)->applied_commands();
  }

  SmrNode::EngineStats engine_stats(ProcessId replica) const override {
    return nodes_.at(replica)->engine_stats();
  }

  bool is_faulty(ProcessId replica) const override {
    return cluster_->is_faulty(replica);
  }

  net::SimNetwork* sim_network() override { return &cluster_->network(); }

  bool stores_agree() const override {
    return digests_agree(
        config_.cluster.n,
        [this](ProcessId id) -> const SmrNode& { return *nodes_[id]; },
        [this](ProcessId id) { return cluster_->is_faulty(id); });
  }

  SmrNode& replica(ProcessId id) override {
    FASTBFT_ASSERT(nodes_.at(id) != nullptr,
                   "replica(): simulator replicas exist from start()");
    return *nodes_[id];
  }

  std::uint64_t delivered_messages() const override {
    return cluster_->network().stats().total_messages();
  }

 private:
  ServiceConfig config_;
  std::vector<SmrNode*> nodes_;
  /// The one host every replica and session runs on (SimHost is stateless
  /// over the cluster's scheduler); declared first so it outlives them.
  std::unique_ptr<engine::SimHost> host_;
  std::unique_ptr<runtime::Cluster> cluster_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  bool started_ = false;
};

// --- Wall-clock backends -----------------------------------------------------

/// One event loop per hosted endpoint, over `Net` (net::ThreadedNetwork,
/// which hosts every endpoint in this process, or net::SocketNetwork,
/// which hosts the ids one process of a TCP cluster runs). All of a
/// replica's protocol code runs on its loop thread; the calling thread
/// reaches a running replica only through live_ (relaxed-atomic stats,
/// republished under mutex_ by restart) and through replica() while no
/// loop runs.
template <typename Net>
class LoopService final : public Service {
  /// Crash and restart are in-process fault injection; a TCP replica is
  /// crashed by killing its process.
  static constexpr bool kInProcess = std::is_same_v<Net, net::ThreadedNetwork>;

 public:
  LoopService(ServiceConfig config, std::unique_ptr<Net> net,
              std::vector<ProcessId> hosted)
      : config_(std::move(config)),
        net_(std::move(net)),
        keys_(std::make_shared<const crypto::KeyStore>(config_.key_seed,
                                                       config_.cluster.n)),
        smr_(config_.smr),
        hosts_(net_->total_size()),
        nodes_(config_.cluster.n),
        seen_applied_(config_.cluster.n, 0),
        live_(config_.cluster.n, nullptr),
        faulty_(config_.cluster.n, false) {
    const auto& cfg = config_.cluster;
    FASTBFT_ASSERT(cfg.satisfies_bound(), "invalid quorum config");
    FASTBFT_ASSERT(config_.num_sessions >= 1, "a service needs sessions");
    FASTBFT_ASSERT(!config_.tune_replica,
                   "tune_replica is simulator-only (chaos harness)");
    // The simulator-tick default of the view-change timeout means nothing
    // on a µs clock.
    smr_.node.sync.base_timeout = config_.sync_base_timeout_us;

    const Duration timeout = config_.request_timeout != 0
                                 ? config_.request_timeout
                                 : kWallClockDefaultRequestTimeout;
    std::sort(hosted.begin(), hosted.end());
    for (ProcessId pid : hosted) {
      FASTBFT_ASSERT(pid < net_->total_size(), "hosted id out of range");
      FASTBFT_ASSERT(!hosts_[pid], "hosted id listed twice");
      if (pid < cfg.n) {
        // The handler reads nodes_[pid] at delivery time, so restart()
        // can swap in a fresh node (on this same loop thread) without
        // re-attaching. A delivery's applies run in the deferred work
        // the backend runs after the handler, so each delivery wakes
        // run_until if the replica applied commands since the previous
        // one; the periodic recheck covers the last apply of a run.
        net_->attach(pid, [this, pid](ProcessId from, const Bytes& payload) {
          const std::uint64_t applied = nodes_[pid]->applied_commands();
          if (applied != seen_applied_[pid]) {
            seen_applied_[pid] = applied;
            wake();
          }
          nodes_[pid]->on_message(from, payload);
        });
        hosts_[pid] = std::make_unique<engine::LoopHost>(net_->loop(pid));
        nodes_[pid] = make_node(pid);
        live_[pid] = nodes_[pid].get();
      } else {
        const std::size_t k = sessions_.size();
        net_->attach(pid, [this, k](ProcessId from, const Bytes& payload) {
          sessions_[k]->on_message(from, payload);
        });
        hosts_[pid] = std::make_unique<engine::LoopHost>(net_->loop(pid));
        sessions_.push_back(std::make_unique<ClientSession>(
            *hosts_[pid], net_->endpoint(pid),
            make_session_config(config_, timeout, keys_)));
      }
    }
  }

  ~LoopService() override { stop(); }

  /// Opens every hosted replica's initial slot window while no loop
  /// thread runs (crashed-before-start replicas too: their traffic and
  /// timers are simply never serviced), then starts the loops.
  void start() override {
    FASTBFT_ASSERT(!started_, "already started");
    started_ = true;
    for (auto& node : nodes_) {
      if (node) node->start();
    }
    net_->start();
  }

  void stop() override {
    net_->stop();
    stopped_ = true;
  }

  ClientSession& session(std::uint32_t index) override {
    return *sessions_.at(index);
  }
  std::uint32_t num_sessions() const override {
    return static_cast<std::uint32_t>(sessions_.size());
  }

  void crash(ProcessId replica) override {
    FASTBFT_ASSERT(kInProcess, "crash: kill the replica's process instead");
    if constexpr (kInProcess) {
      FASTBFT_ASSERT(replica < config_.cluster.n, "crash: id out of range");
      {
        std::lock_guard<std::mutex> lock(mutex_);
        faulty_[replica] = true;
      }
      net_->disconnect(replica);
      wake();
    }
  }

  /// The replica rejoins as a FRESH SmrNode; recovering it is the
  /// protocol's job (catch-up, snapshot state transfer). The swap, the
  /// reconnect and start() all run on its own loop thread: the old node
  /// dies where its timers live (same-thread contract), and no message
  /// reaches the fresh node before it exists. While still disconnected
  /// the loop only runs posted tasks, so reconnecting inside the task is
  /// race-free. Until the task runs, the stats accessors still read the
  /// crashed incarnation.
  void restart(ProcessId replica) override {
    FASTBFT_ASSERT(kInProcess, "restart: restart the replica's process");
    if constexpr (kInProcess) {
      FASTBFT_ASSERT(replica < config_.cluster.n, "restart: id out of range");
      FASTBFT_ASSERT(started_ && !stopped_, "restart: only mid-run");
      {
        std::lock_guard<std::mutex> lock(mutex_);
        FASTBFT_ASSERT(faulty_[replica], "restart: replica never crashed");
        faulty_[replica] = false;
      }
      net_->loop(replica).post([this, replica] {
        auto fresh = make_node(replica);
        {
          // Republish before the old node dies: readers dereference live_
          // under this mutex, so none can still hold the old node after.
          std::lock_guard<std::mutex> lock(mutex_);
          live_[replica] = fresh.get();
        }
        nodes_[replica] = std::move(fresh);
        net_->reconnect(replica);
        nodes_[replica]->start();
      });
    }
  }

  bool run_until(std::function<bool()> done,
                 std::chrono::milliseconds budget) override {
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + budget;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    while (!done()) {
      const auto now = Clock::now();
      if (now >= deadline) return false;
      wake_cv_.wait_until(lock, std::min(deadline, now + kRecheck));
    }
    return true;
  }

  const consensus::QuorumConfig& quorum() const override {
    return config_.cluster;
  }

  std::uint64_t applied_commands(ProcessId replica) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return live(replica).applied_commands();
  }

  SmrNode::EngineStats engine_stats(ProcessId replica) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return live(replica).engine_stats();
  }

  bool is_faulty(ProcessId replica) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return faulty_.at(replica);
  }

  bool stores_agree() const override {
    FASTBFT_ASSERT(stopped_, "store introspection only after stop()");
    return digests_agree(
        config_.cluster.n,
        [this](ProcessId id) -> const SmrNode& { return *nodes_[id]; },
        [this](ProcessId id) { return faulty_[id] || !nodes_[id]; });
  }

  SmrNode& replica(ProcessId id) override {
    FASTBFT_ASSERT(!started_ || stopped_,
                   "replica(): only before start() or after stop()");
    FASTBFT_ASSERT(nodes_.at(id) != nullptr,
                   "replica(): not hosted by this process");
    return *nodes_[id];
  }

  std::uint64_t delivered_messages() const override {
    return net_->delivered_count();
  }

  net::SocketNetwork* socket_network() override {
    if constexpr (kInProcess) {
      return nullptr;
    } else {
      return net_.get();
    }
  }

 private:
  /// Longest a run_until sleeps without an apply before re-checking a
  /// predicate that applies do not signal (session completions, crashes).
  static constexpr std::chrono::milliseconds kRecheck{1};

  /// The replica's current incarnation; callers hold mutex_.
  const SmrNode& live(ProcessId replica) const {
    FASTBFT_ASSERT(live_.at(replica) != nullptr,
                   "replica not hosted by this process");
    return *live_[replica];
  }

  /// Constructor only (no timers armed), so it is safe on the setup
  /// thread and on the replica's loop thread alike.
  std::unique_ptr<SmrNode> make_node(ProcessId id) {
    engine::EngineContext ectx{config_.cluster, id, keys_, /*group=*/0,
                               /*verify_cache=*/nullptr};
    return std::make_unique<SmrNode>(*hosts_[id], std::move(ectx),
                                     net_->endpoint(id), smr_,
                                     config_.num_sessions);
  }

  /// Wakes run_until. Taking wake_mutex_ orders this after a waiter's
  /// predicate check, so an apply between check and wait is not lost.
  void wake() {
    { std::lock_guard<std::mutex> lock(wake_mutex_); }
    wake_cv_.notify_all();
  }

  ServiceConfig config_;
  std::unique_ptr<Net> net_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  SmrOptions smr_;
  /// One per hosted endpoint (replicas, then sessions), indexed by
  /// ProcessId; null for endpoints other processes host.
  std::vector<std::unique_ptr<engine::LoopHost>> hosts_;
  /// Indexed by replica id, null if not hosted. Touched only by replica
  /// id's loop thread mid-run (the restart swap).
  std::vector<std::unique_ptr<SmrNode>> nodes_;
  /// Per replica, its applied-command count when a delivery last woke
  /// run_until; touched only by that replica's loop thread.
  std::vector<std::uint64_t> seen_applied_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;

  mutable std::mutex mutex_;  // guards live_ and faulty_
  std::vector<SmrNode*> live_;
  std::vector<bool> faulty_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace

std::unique_ptr<Service> make_sim_service(const ServiceConfig& config) {
  return std::make_unique<SimService>(config);
}

std::unique_ptr<Service> make_threaded_service(const ServiceConfig& config) {
  std::vector<ProcessId> hosted(config.cluster.n + config.num_sessions);
  std::iota(hosted.begin(), hosted.end(), ProcessId{0});
  return std::make_unique<LoopService<net::ThreadedNetwork>>(
      config,
      std::make_unique<net::ThreadedNetwork>(
          config.cluster.n, net::ThreadedNetworkConfig{config.link_delay},
          config.num_sessions),
      std::move(hosted));
}

std::unique_ptr<Service> make_socket_service(const ServiceConfig& config,
                                             SocketDeployment deployment) {
  FASTBFT_ASSERT(
      deployment.peers.size() == config.cluster.n + config.num_sessions,
      "peers table must cover every replica and session endpoint");
  ServiceConfig socket_config = config;
  // On-demand windows: over a wall-clock transport, eager noop slots are
  // not free — they compete with command slots for real CPU (and more
  // than halved command throughput on a loaded loopback cluster).
  socket_config.smr.eager_windows = false;
  net::SocketNetworkConfig ncfg;
  ncfg.cluster_size = config.cluster.n;
  ncfg.peers = std::move(deployment.peers);
  ncfg.tx_delay_us = config.link_delay.count();
  return std::make_unique<LoopService<net::SocketNetwork>>(
      std::move(socket_config),
      std::make_unique<net::SocketNetwork>(std::move(ncfg)),
      std::move(deployment.hosted));
}

}  // namespace fastbft::smr
