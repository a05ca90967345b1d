#include "runtime/socket_smr.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "consensus/selection.hpp"

namespace fastbft::runtime {

net::SocketNetworkConfig make_socket_net_config(
    const SocketClusterConfig& config) {
  FASTBFT_ASSERT(
      config.peers.size() == config.cfg.n + config.num_clients,
      "peers table must cover every replica and client endpoint");
  net::SocketNetworkConfig ncfg;
  ncfg.cluster_size = config.cfg.n;
  ncfg.peers = config.peers;
  ncfg.link = config.link;
  ncfg.tx_delay_us = config.tx_delay_us;
  return ncfg;
}

// --- SocketSmrServer ---------------------------------------------------------

SocketSmrServer::SocketSmrServer(SocketClusterConfig config, ProcessId id)
    : config_(std::move(config)),
      id_(id),
      net_(make_socket_net_config(config_)),
      keys_(std::make_shared<const crypto::KeyStore>(config_.key_seed,
                                                     config_.cfg.n)),
      leader_of_(consensus::round_robin_leader(config_.cfg.n)) {
  FASTBFT_ASSERT(id_ < config_.cfg.n, "server id out of range");
  smr::SmrOptions smr_options = config_.smr;
  smr_options.node.sync.base_timeout = config_.sync_base_timeout_us;
  smr_options.num_clients = config_.num_clients;
  // On-demand windows: over a wall-clock transport, eager noop slots are
  // not free — they compete with command slots for real CPU (and more
  // than halved command throughput on a loaded loopback cluster).
  smr_options.eager_windows = false;

  // Attaching creates the id's event loop, which the host adapts; the
  // handler reads node_ only at delivery time.
  net_.attach(id_, [this](ProcessId from, const Bytes& payload) {
    node_->on_message(from, payload);
  });
  host_ = std::make_unique<engine::LoopHost>(net_.loop(id_));
  engine::EngineContext ectx{config_.cfg, id_,        keys_,
                             leader_of_,  /*group=*/0, /*stats=*/nullptr,
                             /*verify_cache=*/nullptr};
  node_ = std::make_unique<smr::SmrNode>(*host_, std::move(ectx),
                                         net_.endpoint(id_), smr_options,
                                         /*on_commit=*/nullptr);
}

SocketSmrServer::~SocketSmrServer() { stop(); }

void SocketSmrServer::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  // Seed before the loop thread exists: slot windows open and view-1
  // timers arm single-threaded, exactly like smr::Service's threaded
  // backend.
  node_->start();
  net_.start();
}

void SocketSmrServer::stop() { net_.stop(); }

std::string SocketSmrServer::stats_summary() const {
  std::ostringstream out;
  const auto engine = engine_stats();
  out << "replica " << id_ << " applied " << applied_commands()
      << " commands (" << node_->noop_slots() << " noop slots), "
      << engine.snapshots_installed << " snapshot installs\n";
  out << "engine: depth " << engine.effective_depth << ", batch "
      << engine.effective_batch << ", parked high-water "
      << engine.parked_high_water << "\n";
  out << net_.stats_summary();
  return out.str();
}

// --- SocketSmrClient ---------------------------------------------------------

SocketSmrClient::SocketSmrClient(SocketClusterConfig config,
                                 SocketClientOptions options)
    : config_(std::move(config)),
      options_(options),
      net_(make_socket_net_config(config_)),
      keys_(std::make_shared<const crypto::KeyStore>(config_.key_seed,
                                                     config_.cfg.n)) {
  FASTBFT_ASSERT(options_.first_client_id >= config_.cfg.n,
                 "client ids start after the replicas");
  FASTBFT_ASSERT(options_.first_client_id + options_.sessions <=
                     config_.cfg.n + config_.num_clients,
                 "client ids exceed the cluster's endpoint table");
  for (std::uint32_t k = 0; k < options_.sessions; ++k) {
    const ProcessId pid = options_.first_client_id + k;
    net_.attach(pid, [this, k](ProcessId from, const Bytes& payload) {
      sessions_[k]->on_message(from, payload);
    });
    hosts_.push_back(std::make_unique<engine::LoopHost>(net_.loop(pid)));
    smr::SessionConfig scfg;
    scfg.n = config_.cfg.n;
    scfg.f = config_.cfg.f;
    scfg.request_timeout = options_.request_timeout_us;
    scfg.request_deadline = options_.request_deadline_us;
    scfg.max_in_flight = options_.max_in_flight;
    scfg.keys = keys_;
    sessions_.push_back(std::make_unique<smr::ClientSession>(
        *hosts_[k], net_.endpoint(pid), scfg));
  }
}

SocketSmrClient::~SocketSmrClient() { stop(); }

void SocketSmrClient::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  net_.start();
}

void SocketSmrClient::stop() { net_.stop(); }

std::uint64_t SocketSmrClient::completed() const {
  std::uint64_t sum = 0;
  for (const auto& s : sessions_) sum += s->completed();
  return sum;
}

std::uint64_t SocketSmrClient::deadline_timeouts() const {
  std::uint64_t sum = 0;
  for (const auto& s : sessions_) sum += s->deadline_timeouts();
  return sum;
}

}  // namespace fastbft::runtime
