#include "smr/service.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "common/assert.hpp"
#include "engine/loop_host.hpp"
#include "runtime/cluster.hpp"
#include "runtime/threaded_smr_cluster.hpp"

namespace fastbft::smr {

namespace {

/// Runtime-appropriate request timeouts when the config leaves 0: a
/// healthy request completes in a handful of message delays; the timeout
/// must also ride out one view change of a stalled slot before failing
/// over (simulator base_timeout 1200 ticks / threaded 25 ms).
constexpr Duration kSimDefaultRequestTimeout = 6'000;        // ticks
constexpr Duration kThreadedDefaultRequestTimeout = 100'000; // µs

SessionConfig make_session_config(const ServiceConfig& config,
                                  std::uint32_t index, Duration timeout,
                                  std::shared_ptr<const crypto::KeyStore> keys) {
  SessionConfig scfg;
  scfg.n = config.cluster.n;
  scfg.f = config.cluster.f;
  scfg.first_gateway = (config.first_gateway + index) % config.cluster.n;
  scfg.num_shards = std::max(1u, config.smr.num_groups);
  scfg.request_timeout = timeout;
  scfg.request_deadline = config.request_deadline;
  scfg.max_in_flight = config.max_in_flight;
  scfg.gateway_strike_limit = config.gateway_strike_limit;
  scfg.unsafe_first_reply_quorum = config.unsafe_first_reply_quorum;
  scfg.keys = std::move(keys);
  return scfg;
}

SmrOptions make_smr_options(const ServiceConfig& config) {
  SmrOptions smr = config.smr;
  // The service runs open-ended (sessions decide when to stop asking) and
  // owns the client-endpoint range.
  smr.target_commands = 0;
  smr.num_clients = config.num_sessions;
  return smr;
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
    SmrOptions smr = make_smr_options(config_);
    nodes_.resize(cfg.n, nullptr);
    options.node_factory = [this, smr](const runtime::ProcessContext& ctx,
                                       const runtime::NodeOptions&,
                                       runtime::Node::DecideCallback) {
      SmrOptions tuned = smr;
      if (config_.tune_replica) config_.tune_replica(ctx.id, tuned);
      auto node = std::make_unique<SmrNode>(ctx, tuned, nullptr);
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
          make_session_config(config_, k, timeout, cluster_->keys()));
      cluster_->network().attach(
          pid, [s = session.get()](ProcessId from, const Bytes& payload) {
            s->on_message(from, payload);
          });
      sessions_.push_back(std::move(session));
    }
  }

  void start() override { cluster_->start(); }
  void stop() override {}

  ClientSession& session(std::uint32_t index) override {
    return *sessions_.at(index);
  }
  std::uint32_t num_sessions() const override {
    return static_cast<std::uint32_t>(sessions_.size());
  }

  void crash(ProcessId replica) override { cluster_->crash_now(replica); }
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
    std::optional<crypto::Digest> first;
    for (ProcessId id = 0; id < config_.cluster.n; ++id) {
      if (cluster_->is_faulty(id)) continue;
      crypto::Digest digest = nodes_[id]->state_digest();
      if (!first) {
        first = digest;
      } else if (digest != *first) {
        return false;
      }
    }
    return true;
  }

 private:
  ServiceConfig config_;
  std::vector<SmrNode*> nodes_;
  std::unique_ptr<runtime::Cluster> cluster_;
  std::unique_ptr<engine::SimHost> host_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
};

// --- Threaded backend --------------------------------------------------------

class ThreadedService final : public Service {
 public:
  explicit ThreadedService(ServiceConfig config)
      : config_(std::move(config)) {
    const auto& cfg = config_.cluster;
    FASTBFT_ASSERT(cfg.satisfies_bound(), "invalid quorum config");
    FASTBFT_ASSERT(config_.num_sessions >= 1, "a service needs sessions");
    FASTBFT_ASSERT(!config_.tune_replica,
                   "tune_replica is simulator-only (chaos harness)");

    runtime::ThreadedSmrClusterOptions options;
    options.smr = make_smr_options(config_);
    options.link_delay = config_.link_delay;
    options.sync_base_timeout_us = config_.sync_base_timeout_us;
    options.num_clients = config_.num_sessions;
    options.key_seed = config_.key_seed;
    cluster_ = std::make_unique<runtime::ThreadedSmrCluster>(cfg, options);

    Duration timeout = config_.request_timeout != 0
                           ? config_.request_timeout
                           : kThreadedDefaultRequestTimeout;
    for (std::uint32_t k = 0; k < config_.num_sessions; ++k) {
      ProcessId pid = cfg.n + k;
      hosts_.push_back(
          std::make_unique<engine::LoopHost>(cluster_->net().loop(pid)));
      auto session = std::make_unique<ClientSession>(
          *hosts_.back(), cluster_->net().endpoint(pid),
          make_session_config(config_, k, timeout, cluster_->keys()));
      cluster_->net().attach(
          pid, [s = session.get()](ProcessId from, const Bytes& payload) {
            s->on_message(from, payload);
          });
      sessions_.push_back(std::move(session));
    }
  }

  ~ThreadedService() override { stop(); }

  void start() override { cluster_->start(); }
  void stop() override { cluster_->stop(); }

  ClientSession& session(std::uint32_t index) override {
    return *sessions_.at(index);
  }
  std::uint32_t num_sessions() const override {
    return static_cast<std::uint32_t>(sessions_.size());
  }

  void crash(ProcessId replica) override { cluster_->crash(replica); }
  void restart(ProcessId replica) override { cluster_->restart(replica); }

  bool run_until(std::function<bool()> done,
                 std::chrono::milliseconds budget) override {
    auto deadline = std::chrono::steady_clock::now() + budget;
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return done();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  const consensus::QuorumConfig& quorum() const override {
    return cluster_->config();
  }

  std::uint64_t applied_commands(ProcessId replica) const override {
    return cluster_->applied_commands(replica);
  }

  SmrNode::EngineStats engine_stats(ProcessId replica) const override {
    return cluster_->engine_stats(replica);
  }

  bool is_faulty(ProcessId replica) const override {
    return cluster_->is_faulty(replica);
  }

  bool stores_agree() const override {
    return cluster_->correct_stores_agree();
  }

 private:
  ServiceConfig config_;
  std::unique_ptr<runtime::ThreadedSmrCluster> cluster_;
  std::vector<std::unique_ptr<engine::LoopHost>> hosts_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
};

}  // namespace

std::unique_ptr<Service> make_sim_service(const ServiceConfig& config) {
  return std::make_unique<SimService>(config);
}

std::unique_ptr<Service> make_threaded_service(const ServiceConfig& config) {
  return std::make_unique<ThreadedService>(config);
}

}  // namespace fastbft::smr
