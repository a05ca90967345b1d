#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/transport.hpp"

/// \file threaded_network.hpp
/// Real-concurrency transport: one net::EventLoop thread per process,
/// lock-protected in-memory inboxes, actual wall-clock time. This is the
/// "networking boilerplate" path that demonstrates the protocol engines
/// are not simulation-bound: the pipelined SMR engine, and with it the
/// unmodified consensus::Replica of every slot, runs over this transport
/// through engine::LoopHost (smr::make_threaded_service).
///
/// Scope: in-process message passing modelling a low-latency LAN (an
/// optional fixed `link_delay` models the LAN round-trip explicitly).
/// This file is only the wire: each process's inbox is the
/// EventLoop::Backend of that process's loop, which owns the thread,
/// the timers and the posted tasks (net/event_loop.hpp). Handlers, timers
/// and tasks of one process all run on its loop thread, so replica code
/// stays single-threaded.

namespace fastbft::net {

class ThreadedNetwork;

class ThreadedEndpoint final : public Transport {
 public:
  ThreadedEndpoint(ThreadedNetwork& net, ProcessId self)
      : net_(net), self_(self) {}

  void send(ProcessId to, SharedBytes payload) override;
  std::uint32_t cluster_size() const override;
  ProcessId self() const override { return self_; }

 private:
  ThreadedNetwork& net_;
  ProcessId self_;
};

struct ThreadedNetworkConfig {
  /// Fixed delivery delay for remote messages (self-sends stay immediate,
  /// matching the simulator's convention). Zero delivers as soon as the
  /// destination thread is free. Inboxes are ordered by (delivery time,
  /// arrival sequence), so an immediate self-send is never head-of-line
  /// blocked behind a delayed remote message.
  std::chrono::microseconds link_delay{0};
};

class ThreadedNetwork {
 public:
  /// `n` is the replica cluster size (what endpoints report as
  /// cluster_size(), i.e. what broadcasts cover); `extra_endpoints` adds
  /// client endpoints with ids n .. n + extra - 1. A client endpoint gets
  /// its own loop and inbox exactly like a replica — engine::LoopHost
  /// works for it unchanged — but it is never a broadcast target and is
  /// invisible to consensus membership.
  explicit ThreadedNetwork(std::uint32_t n, ThreadedNetworkConfig config = {},
                           std::uint32_t extra_endpoints = 0);
  ~ThreadedNetwork();

  ThreadedNetwork(const ThreadedNetwork&) = delete;
  ThreadedNetwork& operator=(const ThreadedNetwork&) = delete;

  /// Must be called for every process before start().
  void attach(ProcessId id, ReceiveHandler handler);

  std::unique_ptr<ThreadedEndpoint> endpoint(ProcessId id);

  /// Process `id`'s event loop: its clock, timers and task queue (what
  /// engine::LoopHost adapts). post() on it is the only safe way to touch
  /// a process's protocol objects from outside mid-run, and it runs even
  /// while the process is disconnected.
  EventLoop& loop(ProcessId id) { return inboxes_.at(id)->loop; }

  /// Starts one event loop per process.
  void start();

  /// Stops and joins every loop. Safe to call twice; called by the
  /// destructor. Pending timers are dropped.
  void stop();

  /// Simulates a crash: the process stops receiving, its sends are
  /// dropped and its pending timers are discarded. Thread-safe.
  void disconnect(ProcessId id);

  /// Reverses disconnect(): the process receives and sends again (its old
  /// inbox and timers stayed dropped — a rejoining process starts from a
  /// clean network slate). Thread-safe; a no-op if not disconnected.
  ///
  /// A rejoin that also replaces the process object must sequence the
  /// swap with this call on the loop thread via loop(id).post() — see
  /// the threaded smr::Service's restart().
  void reconnect(ProcessId id);

  void send(ProcessId from, ProcessId to, SharedBytes payload);

  /// Replica cluster size (broadcast scope). Client endpoints not counted.
  std::uint32_t size() const { return n_; }

  /// Replicas plus client endpoints — the valid ProcessId range.
  std::uint32_t total_size() const {
    return static_cast<std::uint32_t>(inboxes_.size());
  }

  std::uint64_t delivered_count() const { return delivered_.load(); }

 private:
  using QueueMap = std::map<std::pair<TimePoint, std::uint64_t>, Envelope>;

  /// Envelope-map nodes an inbox keeps around for reuse: a steady-state
  /// message exchange recycles node allocations instead of paying one
  /// heap round-trip per delivered envelope (observable via
  /// PayloadStats::envelope_allocs/envelope_reuses).
  static constexpr std::size_t kSpareNodeCap = 64;

  /// One process's wire: the envelope queue its loop drains.
  struct Inbox final : EventLoop::Backend {
    Inbox(ThreadedNetwork& net, ProcessId id) : net(net), id(id) {}

    void service(TimePoint now) override;
    TimePoint next_deadline(TimePoint now) override;

    ThreadedNetwork& net;
    ProcessId id;
    std::mutex mutex;
    /// (delivery time, arrival sequence) -> message: delivery-time order
    /// with FIFO tie-break, so zero-delay self-sends overtake delayed
    /// remote traffic exactly as they do on the simulator.
    QueueMap queue;
    std::uint64_t next_env_seq = 0;
    /// Recycled queue nodes (payload refs dropped), guarded by `mutex`.
    std::vector<QueueMap::node_type> spare_nodes;
    std::atomic<bool> disconnected{false};
    EventLoop loop{*this};
  };

  std::uint32_t n_;
  ThreadedNetworkConfig config_;
  std::vector<ReceiveHandler> handlers_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> delivered_{0};
  bool started_ = false;
};

}  // namespace fastbft::net
