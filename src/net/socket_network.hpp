#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/link_policy.hpp"
#include "net/stats.hpp"
#include "net/transport.hpp"

/// \file socket_network.hpp
/// Real TCP transport: the multi-process sibling of ThreadedNetwork.
/// Each locally attached endpoint gets one net::EventLoop thread; this
/// file is only that loop's wire backend — links, accept and framing on
/// the loop's epoll set. The loop owns the timers, posted tasks and the
/// receive handler's thread (net/event_loop.hpp), exactly as it does for
/// ThreadedNetwork, so engine::LoopHost, SmrNode, smr::ClientSession,
/// sharding and snapshots run over sockets unchanged.
///
/// Wire protocol: length-prefixed frames (net/frame.hpp) with a
/// magic+version+ProcessId handshake opening each direction; empty frames
/// are idle heartbeats. Connection topology: every peer with a listen
/// address accepts; a replica dials listeners with LOWER ids (so exactly
/// one TCP connection exists per replica pair, used in both directions);
/// endpoints without a listen address (clients) dial every listener.
/// Dials retry with capped exponential backoff + jitter (LinkPolicy);
/// rx silence past the heartbeat timeout marks the peer down and the
/// dialer reconnects.
///
/// Zero-copy discipline (PR 4): outbound SharedBytes payloads are never
/// staged — the send queue keeps {4-byte header, SharedBytes} entries and
/// the loop scatter-gathers pending frames into one writev per wakeup
/// (write coalescing: syscalls amortize across pipelined slots). Inbound
/// bytes are recv'd straight into the connection's recycled FrameReader
/// buffer and handed to the receive handler through one recycled delivery
/// buffer per connection (ReceiveHandler takes `const Bytes&`, so exactly
/// one copy per frame, alloc-free in steady state — counted by
/// SocketStats delivery_allocs/delivery_reuses).
///
/// Unit tests never touch this file (morphling idiom): framing, backoff
/// and heartbeat policy are tested in memory (tests/test_frame.cpp);
/// sockets enter only via the integration tests
/// (tests/test_socket_transport, tests/test_event_loop), the
/// smr_server/smr_client tools and bench E15.

namespace fastbft::net {

class SocketNetwork;

class SocketEndpoint final : public Transport {
 public:
  SocketEndpoint(SocketNetwork& net, ProcessId self)
      : net_(net), self_(self) {}

  void send(ProcessId to, SharedBytes payload) override;
  std::uint32_t cluster_size() const override;
  ProcessId self() const override { return self_; }

 private:
  SocketNetwork& net_;
  ProcessId self_;
};

/// One peer's address in the cluster map. A peer with no listen address
/// (port 0 and no adopted fd) is dial-only — the client role.
struct SocketPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// An already-bound, already-listening fd to adopt instead of binding
  /// host:port (meaningful only for ids local to this process). This is
  /// how the fork-based bench hands children port-0 listeners the parent
  /// pre-bound, so nobody races on port numbers.
  int adopted_listen_fd = -1;

  bool listens() const { return port != 0 || adopted_listen_fd >= 0; }
};

struct SocketNetworkConfig {
  /// Replica cluster size (broadcast scope); ids [0, cluster_size) are
  /// replicas, ids beyond are client endpoints.
  std::uint32_t cluster_size = 0;

  /// Address table for ALL ids (replicas first, then clients). Size of
  /// this vector is total_size().
  std::vector<SocketPeer> peers;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// recv() chunk per readiness wakeup.
  std::size_t read_chunk_bytes = 64 * 1024;

  /// Max frames folded into one writev call (IOV_MAX/2 bound applies too).
  std::size_t writev_batch_frames = 64;

  /// Cap on frames queued per connection while the peer is unreachable;
  /// overflow drops the newest frame (BFT protocols tolerate loss —
  /// retransmission is the protocol's job, not the transport's).
  std::size_t max_queued_frames = 65536;

  /// Emulated one-way link latency: frames sit in the send queue until
  /// they are this old (microseconds). 0 = send immediately. This is the
  /// socket counterpart of the threaded bench's artificial link delay —
  /// loopback RTTs are so far below real network RTTs that pipelining
  /// effects vanish into scheduler noise without it. Delay costs no CPU:
  /// held frames just extend the epoll timeout, and a whole RTT's worth
  /// still leaves in one writev.
  Duration tx_delay_us = 0;

  LinkPolicyOptions link;
};

/// Multi-process TCP transport. Construct with the full cluster address
/// map, attach() the locally hosted ids, start(). Each attached id runs
/// its own event loop; cross-thread entry points (a send from another
/// thread) funnel through that loop's task queue.
class SocketNetwork {
 public:
  explicit SocketNetwork(SocketNetworkConfig config);
  ~SocketNetwork();

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Declares `id` locally hosted and registers its receive handler.
  /// Must be called before start().
  void attach(ProcessId id, ReceiveHandler handler);

  std::unique_ptr<SocketEndpoint> endpoint(ProcessId id);

  /// Local id `id`'s event loop: its clock, timers and task queue (what
  /// engine::LoopHost adapts). Exists once `id` is attach()ed.
  EventLoop& loop(ProcessId id) { return local_of(id).loop; }

  /// Binds/adopts listen sockets and starts one event loop per attached
  /// id. Dials start immediately (with backoff until peers appear).
  void start();

  /// Stops the loops and closes every socket. Safe to call twice.
  void stop();

  void send(ProcessId from, ProcessId to, SharedBytes payload);

  std::uint32_t size() const { return config_.cluster_size; }
  std::uint32_t total_size() const {
    return static_cast<std::uint32_t>(config_.peers.size());
  }

  std::uint64_t delivered_count() const { return delivered_.load(); }

  /// Actual listening port of a local id (after start()); 0 if `id` does
  /// not listen. Lets callers bind port 0 and publish the real port.
  std::uint16_t listen_port(ProcessId id) const;

  /// Counters for the link local `id` keeps toward `peer` (zeroes if no
  /// such link). Thread-safe.
  SocketCounters link_stats(ProcessId id, ProcessId peer) const;

  /// Aggregate across all local links plus loop-level events.
  SocketCounters stats() const;

  /// Human-readable per-link dump (the smr_server SIGTERM report).
  std::string stats_summary() const;

 private:
  enum class LinkState : std::uint8_t { Idle, Connecting, Ready };

  struct SendEntry {
    FrameHeader header;
    SharedBytes payload;
    std::size_t offset = 0;  // bytes of (header+payload) already written
    TimePoint ready_at = 0;  // tx_delay emulation: hold until this tick
  };

  /// Loop-thread-owned state for one peer connection (dialed or
  /// accepted). Only `stats` may be touched from other threads.
  struct Link {
    LinkState state = LinkState::Idle;
    int fd = -1;
    bool dialer = false;          // this side initiates connects
    bool peer_identified = false; // inbound handshake validated
    bool want_writable = false;   // EPOLLOUT armed
    bool ever_established = false;
    /// Bumped at every register/close so stale epoll events for a
    /// recycled fd number cannot be misattributed within one round.
    std::uint16_t gen = 0;
    TimePoint connect_started = 0;
    FrameReader reader;
    std::deque<SendEntry> sendq;
    Bytes delivery_buf;           // recycled const Bytes& for the handler
    LinkPolicy policy;
    SocketStats stats;

    explicit Link(std::size_t max_frame) : reader(max_frame) {}
  };

  /// A freshly accepted connection whose opening handshake has not
  /// arrived yet — not bound to a Link until the peer identifies itself.
  struct PendingAccept {
    int fd = -1;
    std::uint16_t gen = 0;
    FrameReader reader;
    TimePoint accepted_at = 0;
    explicit PendingAccept(std::size_t max_frame) : reader(max_frame) {}
  };

  /// One attached endpoint: the wire backend of its event loop. Links,
  /// pendings and the listen socket are touched by the loop thread only
  /// (asserted in invariant builds via EventLoop::affinity_ok).
  struct Local final : EventLoop::Backend {
    Local(SocketNetwork& net, ProcessId id) : net(net), id(id) {}

    void service(TimePoint now) override;
    TimePoint next_deadline(TimePoint now) override;
    void on_io(std::uint64_t tag, std::uint32_t events) override;

    SocketNetwork& net;
    ProcessId id;
    int listen_fd = -1;
    std::vector<std::unique_ptr<Link>> links;  // indexed by peer id
    std::vector<std::unique_ptr<PendingAccept>> pendings;  // slot vector
    SocketStats stats;  // loop-level events (rejected accepts, ...)
    EventLoop loop{*this};
  };

  Local& local_of(ProcessId id) const;
  void service_links(Local& local, TimePoint now);
  TimePoint next_deadline(const Local& local, TimePoint now) const;
  void on_io(Local& local, std::uint64_t tag, std::uint32_t events);

  void start_connect(Local& local, Link& link, ProcessId peer, TimePoint now);
  void on_connect_writable(Local& local, Link& link, ProcessId peer);
  void established(Local& local, Link& link, ProcessId peer);
  void link_down(Link& link);
  void accept_ready(Local& local);
  void pending_readable(Local& local, std::size_t slot);
  void adopt_pending(Local& local, std::size_t slot, const Handshake& hs);
  void drop_pending(Local& local, std::size_t slot);
  void link_readable(Local& local, Link& link, ProcessId peer);
  bool parse_frames(Local& local, Link& link, ProcessId peer);
  void enqueue_frame(Link& link, SharedBytes payload, bool heartbeat);
  void flush_link(Local& local, Link& link, ProcessId peer);
  void deliver(Local& local, Link& link, ProcessId from, ByteView frame);
  void send_on_loop(Local& local, ProcessId to, SharedBytes payload);
  void update_epoll(Local& local, Link& link, ProcessId peer);

  SocketNetworkConfig config_;
  std::vector<ReceiveHandler> handlers_;       // indexed by id, empty if remote
  std::vector<std::unique_ptr<Local>> locals_;  // indexed by id, null if remote
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<std::uint64_t> delivered_{0};
  std::vector<std::uint16_t> listen_ports_;
};

}  // namespace fastbft::net
