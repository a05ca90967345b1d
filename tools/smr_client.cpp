// smr_client: closed-loop workload driver for an smr_server cluster.
//
//   ./build/tools/smr_client --peers "$PEERS" --n 4 --f 1
//       --sessions 2 --ops 2000 --workload mixed  (one line)
//
// Hosts K client sessions (endpoint ids --first .. --first+K-1; servers
// must have been started with --clients covering them), submits --ops
// typed requests round-robin across sessions and keys, each sent to all
// n replicas (the servers route it to its key's shard, so the client
// needs no shard count), then waits for every future to complete. Exits 0 iff all ops completed without a
// deadline timeout; prints throughput and the socket stats dump either
// way. See docs/TRANSPORT.md.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "smr/service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --peers H:P,... [options]\n"
      "  --peers LIST       comma-separated host:port per replica (required)\n"
      "  --n/--f/--t        quorum shape (defaults 4/1/f)\n"
      "  --clients C        total client endpoints (default 4; must match)\n"
      "  --first ID         first endpoint id hosted here (default n)\n"
      "  --sessions K       sessions in this process (default 1)\n"
      "  --window W         per-session in-flight window (default 8)\n"
      "  --ops N            total requests (default 1000)\n"
      "  --keys K           key-space size (default 64)\n"
      "  --value-bytes B    value payload size (default 16)\n"
      "  --workload W       mixed | put (default mixed: put/get/cas)\n"
      "  --link-delay US    emulated one-way link latency, µs (default 0;\n"
      "                     must match the servers)\n"
      "  --timeout US       per-request retry timeout, µs (default 100000)\n"
      "  --deadline US      per-request give-up budget, µs (default 0 = none)\n"
      "  --max-seconds S    overall wait bound (default 60)\n"
      "  --seed S           key-derivation seed (default 42)\n",
      argv0);
  std::exit(2);
}

std::vector<fastbft::net::SocketPeer> parse_peers(const std::string& list) {
  std::vector<fastbft::net::SocketPeer> peers;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(pos, comma - pos);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bad peer entry: %s\n", entry.c_str());
      std::exit(2);
    }
    fastbft::net::SocketPeer peer;
    peer.host = entry.substr(0, colon);
    peer.port = static_cast<std::uint16_t>(
        std::strtoul(entry.c_str() + colon + 1, nullptr, 10));
    peers.push_back(std::move(peer));
    pos = comma + 1;
  }
  return peers;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastbft;

  unsigned n = 4, f = 1, t = 0, clients = 4, sessions = 1;
  unsigned window = 8, keyspace = 64, value_bytes = 16;
  long first = -1;
  unsigned long ops = 1000, timeout_us = 100'000, deadline_us = 0;
  unsigned long link_delay = 0;
  unsigned long max_seconds = 60;
  unsigned long long seed = 42;
  std::string peers_arg, workload = "mixed";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--peers") peers_arg = next();
    else if (arg == "--n") n = std::strtoul(next(), nullptr, 10);
    else if (arg == "--f") f = std::strtoul(next(), nullptr, 10);
    else if (arg == "--t") t = std::strtoul(next(), nullptr, 10);
    else if (arg == "--clients") clients = std::strtoul(next(), nullptr, 10);
    else if (arg == "--first") first = std::strtol(next(), nullptr, 10);
    else if (arg == "--sessions") sessions = std::strtoul(next(), nullptr, 10);
    else if (arg == "--window") window = std::strtoul(next(), nullptr, 10);
    else if (arg == "--ops") ops = std::strtoul(next(), nullptr, 10);
    else if (arg == "--keys") keyspace = std::strtoul(next(), nullptr, 10);
    else if (arg == "--value-bytes")
      value_bytes = std::strtoul(next(), nullptr, 10);
    else if (arg == "--workload") workload = next();
    else if (arg == "--link-delay")
      link_delay = std::strtoul(next(), nullptr, 10);
    else if (arg == "--timeout") timeout_us = std::strtoul(next(), nullptr, 10);
    else if (arg == "--deadline")
      deadline_us = std::strtoul(next(), nullptr, 10);
    else if (arg == "--max-seconds")
      max_seconds = std::strtoul(next(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else usage(argv[0]);
  }
  if (t == 0) t = f;
  if (peers_arg.empty()) usage(argv[0]);
  if (first < 0) first = n;

  smr::ServiceConfig config;
  config.with_cluster(n, f, t)
      .with_sessions(clients)
      .with_seed(seed)
      .with_window(window)
      .with_request_timeout(static_cast<Duration>(timeout_us))
      .with_deadline(static_cast<Duration>(deadline_us))
      .with_link_delay(std::chrono::microseconds(link_delay));
  smr::SocketDeployment deployment{parse_peers(peers_arg), {}};
  if (deployment.peers.size() != n) {
    std::fprintf(stderr, "--peers must list exactly %u replicas (got %zu)\n",
                 n, deployment.peers.size());
    return 2;
  }
  deployment.peers.resize(n + clients);
  if (sessions == 0 || first < static_cast<long>(n) ||
      first + static_cast<long>(sessions) > static_cast<long>(n + clients)) {
    std::fprintf(stderr,
                 "--first/--sessions must name 1 or more client ids in "
                 "[%u, %u)\n",
                 n, n + clients);
    return 2;
  }
  for (unsigned k = 0; k < sessions; ++k) {
    deployment.hosted.push_back(static_cast<ProcessId>(first + k));
  }

  auto client = smr::make_socket_service(config, std::move(deployment));
  const auto completed = [&client] {
    std::uint64_t sum = 0;
    for (std::uint32_t k = 0; k < client->num_sessions(); ++k) {
      sum += client->session(k).completed();
    }
    return sum;
  };

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  client->start();

  const auto t0 = std::chrono::steady_clock::now();
  const std::string value(value_bytes, 'x');
  for (unsigned long i = 0; i < ops; ++i) {
    auto& session = client->session(i % sessions);
    const std::string key = "key-" + std::to_string(i % keyspace);
    if (workload == "put") {
      session.put(key, value + std::to_string(i));
    } else {
      switch (i % 3) {
        case 0: session.put(key, value + std::to_string(i)); break;
        case 1: session.get(key); break;
        default: session.cas(key, value + std::to_string(i - 2), value); break;
      }
    }
  }

  const auto give_up = t0 + std::chrono::seconds(max_seconds);
  while (completed() < ops && !g_stop &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();

  const std::uint64_t done = completed();
  std::uint64_t timeouts = 0;
  for (std::uint32_t k = 0; k < client->num_sessions(); ++k) {
    timeouts += client->session(k).deadline_timeouts();
  }
  std::printf(
      "smr_client: %llu/%lu ops completed in %.3f s (%.1f ops/s), "
      "%llu deadline timeouts\n",
      static_cast<unsigned long long>(done), ops, secs,
      secs > 0 ? static_cast<double>(done) / secs : 0.0,
      static_cast<unsigned long long>(timeouts));
  std::printf("--- smr_client socket stats ---\n%s",
              client->socket_network()->stats_summary().c_str());
  std::fflush(stdout);
  client->stop();
  return (done == ops && timeouts == 0) ? 0 : 1;
}
