#pragma once

#include <memory>
#include <string>
#include <vector>

#include "consensus/config.hpp"
#include "consensus/types.hpp"
#include "crypto/signer.hpp"
#include "engine/loop_host.hpp"
#include "net/socket_network.hpp"
#include "smr/session.hpp"
#include "smr/smr_node.hpp"

/// \file socket_smr.hpp
/// Multi-process SMR runtime over net::SocketNetwork: one SocketSmrServer
/// hosts ONE replica in the calling process; one SocketSmrClient hosts K
/// client sessions. Every process derives identical key material from the
/// shared `key_seed` (crypto::KeyStore is deterministic), so signatures
/// verify across process boundaries without any key exchange.
///
/// This mirrors smr::Service's threaded wiring exactly — same
/// EngineContext, same seeding order (node->start() before net.start(),
/// while no loop thread runs), counters read from the node itself — the
/// only difference is that the transport's other endpoints live in other
/// OS processes. Used by tools/smr_server, tools/smr_client and bench E15.

namespace fastbft::runtime {

/// Shared cluster topology: every server and client process must be
/// constructed from an identical copy of this (flags or fork).
struct SocketClusterConfig {
  consensus::QuorumConfig cfg;
  /// Client endpoint ids are cfg.n .. cfg.n + num_clients - 1, across
  /// ALL client processes combined.
  std::uint32_t num_clients = 0;
  std::uint64_t key_seed = 42;
  Duration sync_base_timeout_us = 25'000;
  smr::SmrOptions smr;
  /// Address table for every id (replicas then clients); clients have no
  /// listen address. Size must be cfg.n + num_clients.
  std::vector<net::SocketPeer> peers;
  net::LinkPolicyOptions link;
  /// Emulated one-way link latency (net::SocketNetworkConfig::tx_delay_us);
  /// 0 = raw loopback. Must match across every process in the cluster.
  Duration tx_delay_us = 0;
};

/// One replica process.
class SocketSmrServer {
 public:
  SocketSmrServer(SocketClusterConfig config, ProcessId id);
  ~SocketSmrServer();

  SocketSmrServer(const SocketSmrServer&) = delete;
  SocketSmrServer& operator=(const SocketSmrServer&) = delete;

  void start();
  void stop();

  ProcessId id() const { return id_; }

  /// Commands applied by this replica (all groups; thread-safe).
  std::uint64_t applied_commands() const { return node_->applied_commands(); }

  /// Engine gauges (relaxed atomics inside SmrNode; thread-safe).
  smr::SmrNode::EngineStats engine_stats() const {
    return node_->engine_stats();
  }

  net::SocketCounters socket_stats() const { return net_.stats(); }
  net::SocketCounters link_stats(ProcessId peer) const {
    return net_.link_stats(id_, peer);
  }

  /// The SIGTERM dump: per-link socket counters plus engine gauges.
  std::string stats_summary() const;

 private:
  SocketClusterConfig config_;
  ProcessId id_;
  net::SocketNetwork net_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  consensus::LeaderFn leader_of_;
  std::unique_ptr<engine::LoopHost> host_;
  std::unique_ptr<smr::SmrNode> node_;
  bool started_ = false;
};

/// Per-process client options on top of the shared cluster config.
struct SocketClientOptions {
  /// First endpoint id hosted by this process (>= cfg.n).
  ProcessId first_client_id = 0;
  /// Sessions hosted by this process (ids first_client_id .. +sessions-1).
  std::uint32_t sessions = 1;
  Duration request_timeout_us = 100'000;
  Duration request_deadline_us = 0;
  std::uint32_t max_in_flight = 8;
};

/// One client process hosting K sessions, each with its own endpoint id,
/// socket loop thread and engine host (same shape as smr::Service's
/// threaded mode). Typed ops on session(k) are thread-safe.
class SocketSmrClient {
 public:
  SocketSmrClient(SocketClusterConfig config, SocketClientOptions options);
  ~SocketSmrClient();

  SocketSmrClient(const SocketSmrClient&) = delete;
  SocketSmrClient& operator=(const SocketSmrClient&) = delete;

  void start();
  void stop();

  std::uint32_t sessions() const {
    return static_cast<std::uint32_t>(sessions_.size());
  }
  smr::ClientSession& session(std::uint32_t k) { return *sessions_[k]; }

  /// Sum of completed requests across sessions (thread-safe).
  std::uint64_t completed() const;
  std::uint64_t deadline_timeouts() const;

  net::SocketCounters socket_stats() const { return net_.stats(); }
  std::string stats_summary() const { return net_.stats_summary(); }

 private:
  SocketClusterConfig config_;
  SocketClientOptions options_;
  net::SocketNetwork net_;
  std::shared_ptr<const crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<engine::LoopHost>> hosts_;
  std::vector<std::unique_ptr<smr::ClientSession>> sessions_;
  bool started_ = false;
};

/// Builds the SocketNetworkConfig shared by both runtimes.
net::SocketNetworkConfig make_socket_net_config(
    const SocketClusterConfig& config);

}  // namespace fastbft::runtime
