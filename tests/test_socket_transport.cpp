#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket_network.hpp"
#include "smr/service.hpp"

/// Integration tests for the TCP socket transport — the ONE test binary
/// that touches real sockets (everything message-level lives in
/// tests/test_frame.cpp). Each test stands up separate SocketNetwork
/// instances inside this process connected only through loopback TCP, so
/// every delivery crosses a real kernel socket: framing, handshakes,
/// write coalescing, reconnect, rx-expiry and the zero-copy counters are
/// all exercised end to end. NOT in the TSan target list (ctest tier 1
/// only): the multi-network setup is socket-latency bound, and the
/// transport's threading is already covered by the TSan'd threaded tests
/// sharing the same host contract.

namespace fastbft::net {
namespace {

using namespace std::chrono_literals;

/// Spin-waits (socket latency, not simulated time) for `cond` or fails.
bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds budget = 5000ms) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < give_up) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

/// Pre-binds a loopback listener on a kernel-chosen port, so tests never
/// race on port numbers (the same trick bench E15's parent process uses).
struct BoundListener {
  int fd = -1;
  std::uint16_t port = 0;
};

BoundListener bind_loopback() {
  BoundListener out;
  out.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  EXPECT_GE(out.fd, 0);
  int one = 1;
  ::setsockopt(out.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::bind(out.fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  EXPECT_EQ(::listen(out.fd, 16), 0);
  EXPECT_EQ(::getsockname(out.fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  out.port = ntohs(addr.sin_port);
  return out;
}

/// One locally hosted endpoint with its own SocketNetwork, so traffic to
/// every other endpoint crosses a real TCP connection.
struct Node {
  std::unique_ptr<SocketNetwork> net;
  std::unique_ptr<SocketEndpoint> endpoint;
  std::mutex mutex;
  std::vector<std::pair<ProcessId, Bytes>> received;

  std::size_t count() {
    std::lock_guard<std::mutex> lk(mutex);
    return received.size();
  }
};

std::unique_ptr<Node> make_node(const SocketNetworkConfig& config,
                                ProcessId id, int adopted_fd = -1) {
  auto node = std::make_unique<Node>();
  SocketNetworkConfig own = config;
  if (adopted_fd >= 0) own.peers[id].adopted_listen_fd = adopted_fd;
  node->net = std::make_unique<SocketNetwork>(own);
  Node* raw = node.get();
  node->net->attach(id, [raw](ProcessId from, const Bytes& payload) {
    std::lock_guard<std::mutex> lk(raw->mutex);
    raw->received.emplace_back(from, payload);
  });
  node->endpoint = node->net->endpoint(id);
  node->net->start();
  return node;
}

SharedBytes payload_of(const std::string& s) {
  return SharedBytes(Bytes(s.begin(), s.end()));
}

// --- Delivery ----------------------------------------------------------------

TEST(SocketTransportTest, DeliversBothDirectionsOverOneConnection) {
  auto listener = bind_loopback();
  SocketNetworkConfig config;
  config.cluster_size = 2;
  config.peers.resize(2);
  config.peers[0].port = listener.port;  // id 1 dials id 0

  auto a = make_node(config, 0, listener.fd);
  auto b = make_node(config, 1);

  b->endpoint->send(0, payload_of("ping"));
  ASSERT_TRUE(eventually([&] { return a->count() >= 1; }));
  a->endpoint->send(1, payload_of("pong"));
  ASSERT_TRUE(eventually([&] { return b->count() >= 1; }));

  EXPECT_EQ(a->received[0].first, 1u);
  EXPECT_EQ(Bytes(a->received[0].second), Bytes({'p', 'i', 'n', 'g'}));
  EXPECT_EQ(b->received[0].first, 0u);

  // Exactly one TCP connection serves the pair: the dialer (higher id)
  // attempted it, the listener side never dialed.
  EXPECT_GE(b->net->link_stats(1, 0).connects_established, 1u);
  EXPECT_EQ(a->net->link_stats(0, 1).connects_attempted, 0u);

  b->net->stop();
  a->net->stop();
}

TEST(SocketTransportTest, BroadcastSharesOnePayloadBuffer) {
  // ids 0 and 1 listen; id 2 (the sender) dials both lower ids, so the
  // fan-out crosses two distinct TCP connections.
  auto l0 = bind_loopback();
  auto l1 = bind_loopback();
  SocketNetworkConfig config;
  config.cluster_size = 3;
  config.peers.resize(3);
  config.peers[0].port = l0.port;
  config.peers[1].port = l1.port;

  auto a = make_node(config, 0, l0.fd);
  auto b = make_node(config, 1, l1.fd);
  auto c = make_node(config, 2);  // dials both listeners

  // One 64-byte payload fanned to two remote peers must be materialized
  // exactly once (SharedBytes aliased by both send queues; writev
  // scatter-gathers straight out of it — PR 4's zero-copy discipline).
  // Wait on the accepting sides: an acceptor establishes only after the
  // dialer's handshake arrived, so every dialer's hello payload (b dials
  // a too) has been allocated before the counter reset.
  ASSERT_TRUE(eventually([&] {
    return a->net->link_stats(0, 1).connects_established >= 1 &&
           a->net->link_stats(0, 2).connects_established >= 1 &&
           b->net->link_stats(1, 2).connects_established >= 1;
  }));
  PayloadStats::reset();
  SharedBytes payload(Bytes(64, 0xab));
  EXPECT_EQ(PayloadStats::allocs(), 1u);
  c->endpoint->send(0, payload);
  c->endpoint->send(1, payload);
  ASSERT_TRUE(eventually([&] { return a->count() >= 1 && b->count() >= 1; }));
  EXPECT_EQ(PayloadStats::allocs(), 1u);  // no per-link copies appeared
  EXPECT_EQ(a->received[0].second.size(), 64u);

  c->net->stop();
  b->net->stop();
  a->net->stop();
}

TEST(SocketTransportTest, DeliveryBufferRecyclesAndWritevCoalesces) {
  auto listener = bind_loopback();
  SocketNetworkConfig config;
  config.cluster_size = 2;
  config.peers.resize(2);
  config.peers[0].port = listener.port;

  auto a = make_node(config, 0, listener.fd);
  auto b = make_node(config, 1);

  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    b->endpoint->send(0, payload_of("frame-" + std::to_string(i)));
  }
  ASSERT_TRUE(eventually([&] { return a->count() >= kFrames; }));

  // Inbound: the per-connection delivery buffer is recycled, so allocs
  // plateau at warm-up while reuses track the frame count.
  const auto in = a->net->link_stats(0, 1);
  EXPECT_EQ(in.frames_in, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(in.delivery_allocs + in.delivery_reuses, in.frames_in);
  EXPECT_GT(in.delivery_reuses, in.delivery_allocs);
  EXPECT_EQ(in.decode_errors, 0u);

  // Outbound: frames queued in one burst leave in far fewer writev calls
  // (end-of-round coalescing), never dropped. Read after stop(): the
  // sender's loop counts frames after writev returns, which can be after
  // the receiver already has them all.
  b->net->stop();
  const auto out = b->net->link_stats(1, 0);
  EXPECT_GE(out.frames_out, static_cast<std::uint64_t>(kFrames));
  EXPECT_LT(out.writev_calls, out.frames_out / 2);
  EXPECT_EQ(out.frames_dropped, 0u);

  a->net->stop();
}

// --- Connection lifecycle ----------------------------------------------------

TEST(SocketTransportTest, DialerReconnectsAfterPeerRestart) {
  auto listener = bind_loopback();
  SocketNetworkConfig config;
  config.cluster_size = 2;
  config.peers.resize(2);
  config.peers[0].port = listener.port;
  // Fast retries so the restart window is short.
  config.link.backoff.initial_us = 5'000;
  config.link.backoff.max_us = 50'000;

  auto b = make_node(config, 1);  // dialer up first: backoff until A binds
  {
    auto a = make_node(config, 0, listener.fd);
    b->endpoint->send(0, payload_of("first"));
    ASSERT_TRUE(eventually([&] { return a->count() >= 1; }));
    a->net->stop();  // peer restarts: every socket closes
  }

  // The dialer's config still points at the original port; the restarted
  // "process" binds it itself (SO_REUSEADDR — loopback rebinds of a
  // closed listener are immediate).
  auto a2 = make_node(config, 0);

  ASSERT_TRUE(eventually([&] {
    b->endpoint->send(0, payload_of("after-restart"));
    return a2->count() >= 1;
  }));
  // The dialer saw the break and re-established the same link.
  EXPECT_GE(b->net->link_stats(1, 0).reconnects, 1u);
  EXPECT_GE(b->net->link_stats(1, 0).connects_established, 2u);

  b->net->stop();
  a2->net->stop();
}

TEST(SocketTransportTest, SilentPeerTripsRxExpiry) {
  // id 0's "listener" is a raw socket that accepts and never says
  // anything: the dialer establishes, sends its handshake, then rx
  // silence must trip the heartbeat timeout — peer_downs counts it and
  // the dialer goes back to retrying.
  auto silent = bind_loopback();
  SocketNetworkConfig config;
  config.cluster_size = 2;
  config.peers.resize(2);
  config.peers[0].port = silent.port;
  config.link.heartbeat_interval_us = 20'000;
  config.link.heartbeat_timeout_us = 80'000;
  config.link.backoff.initial_us = 10'000;

  auto b = make_node(config, 1);
  ASSERT_TRUE(eventually([&] {
    return b->net->link_stats(1, 0).peer_downs >= 1;
  }));
  // Outbound heartbeats were attempted while the link looked up.
  EXPECT_GE(b->net->link_stats(1, 0).heartbeats_out, 1u);
  b->net->stop();
  ::close(silent.fd);
}

TEST(SocketTransportTest, GarbageHandshakeIsRejected) {
  auto listener = bind_loopback();
  SocketNetworkConfig config;
  config.cluster_size = 2;
  config.peers.resize(2);
  config.peers[0].port = listener.port;
  auto a = make_node(config, 0, listener.fd);

  // A raw client that frames a garbage (non-handshake) first payload:
  // the acceptor must reject it and close, never deliver it.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  FrameWriter writer;
  auto frame = *writer.frame(Bytes{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01});
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  ASSERT_TRUE(eventually([&] {
    return a->net->stats().handshake_rejects >= 1;
  }));
  EXPECT_EQ(a->count(), 0u);
  ::close(fd);
  a->net->stop();
}

// --- Full SMR over sockets ---------------------------------------------------

TEST(SocketTransportTest, SmrClusterCommitsOverRealSockets) {
  // Four one-replica socket services and one two-session socket service
  // inside this process, each with its OWN SocketNetwork — all consensus
  // and client traffic crosses loopback TCP, exactly the
  // smr_server/smr_client topology minus the process boundary (bench E15
  // and CI's multiprocess smoke cover the forked version).
  constexpr std::uint32_t kN = 4;
  constexpr std::uint64_t kOps = 40;

  smr::ServiceConfig config;
  config.with_cluster(kN, 1, 1)
      .with_sessions(2)
      .with_pipeline_depth(4)
      .with_batch(4)
      .with_window(4);
  std::vector<SocketPeer> peers(kN + 2);
  std::vector<BoundListener> listeners;
  for (std::uint32_t id = 0; id < kN; ++id) {
    listeners.push_back(bind_loopback());
    peers[id].port = listeners[id].port;
  }

  std::vector<std::unique_ptr<smr::Service>> servers;
  for (std::uint32_t id = 0; id < kN; ++id) {
    smr::SocketDeployment own{peers, {id}};
    own.peers[id].adopted_listen_fd = listeners[id].fd;
    servers.push_back(smr::make_socket_service(config, std::move(own)));
    servers.back()->start();
  }

  auto client = smr::make_socket_service(
      config, smr::SocketDeployment{peers, {kN, kN + 1}});
  ASSERT_EQ(client->num_sessions(), 2u);
  const auto completed = [&client] {
    return client->session(0).completed() + client->session(1).completed();
  };
  client->start();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    auto& session = client->session(static_cast<std::uint32_t>(i % 2));
    if (i % 2 == 0) {
      session.put("key-" + std::to_string(i % 8), "v" + std::to_string(i));
    } else {
      session.get("key-" + std::to_string(i % 8));
    }
  }
  ASSERT_TRUE(eventually([&] { return completed() >= kOps; }, 30000ms));
  EXPECT_EQ(client->session(0).deadline_timeouts() +
                client->session(1).deadline_timeouts(),
            0u);

  // Every correct replica applies every command; the transport never
  // dropped or misframed anything along the way.
  ASSERT_TRUE(eventually([&] {
    for (ProcessId id = 0; id < kN; ++id) {
      if (servers[id]->applied_commands(id) < kOps) return false;
    }
    return true;
  }));
  for (ProcessId id = 0; id < kN; ++id) {
    SocketNetwork& net = *servers[id]->socket_network();
    const auto stats = net.stats();
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.frames_dropped, 0u);
    EXPECT_EQ(stats.handshake_rejects, 0u);
    // Each session sends every request to every replica, so every server
    // holds a link from each client endpoint that carried frames.
    for (ProcessId client_id = kN; client_id < kN + 2; ++client_id) {
      EXPECT_GE(net.link_stats(id, client_id).frames_in, kOps / 2)
          << "p" << id << " <- client " << client_id;
    }
  }
  client->stop();
  for (auto& server : servers) server->stop();
}

TEST(SocketTransportDeathTest, SocketServiceHasNoInProcessFaultInjection) {
  // A TCP replica crashes when its process dies; crash()/restart() on a
  // socket service are programming errors, not no-ops.
  auto service = smr::make_socket_service(
      smr::ServiceConfig{},
      smr::SocketDeployment{std::vector<SocketPeer>(5), {0}});
  EXPECT_DEATH(service->crash(0), "kill the replica's process");
  EXPECT_DEATH(service->restart(0), "restart the replica's process");
}

}  // namespace
}  // namespace fastbft::net
