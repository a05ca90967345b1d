// smr_server: one SMR replica process over the TCP socket transport.
//
// A 4-replica cluster with 2 shards on loopback:
//
//   PEERS=127.0.0.1:7300,127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303
//   for id in 0 1 2 3; do
//     ./build/tools/smr_server --id $id --n 4 --f 1 --shards 2 --peers "$PEERS" &
//   done
//
// then point tools/smr_client at the same --peers list. Every process
// derives identical keys from --seed, so no key exchange is needed.
// SIGTERM/SIGINT dumps per-link socket counters + engine gauges and
// exits cleanly. See docs/TRANSPORT.md.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "smr/service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --id I --peers H:P,H:P,... [options]\n"
      "  --id I             replica id (0-based, required)\n"
      "  --peers LIST       comma-separated host:port per replica (required;\n"
      "                     length defines nothing — must match --n)\n"
      "  --n N              replicas (default 4)\n"
      "  --f F              Byzantine faults tolerated (default 1)\n"
      "  --t T              fast-path threshold (default = f)\n"
      "  --shards S         consensus groups (default 1)\n"
      "  --depth D          pipeline depth (default 4; must match on every\n"
      "                     process: it sets the leader schedule)\n"
      "  --batch B          max commands per slot (default 8)\n"
      "  --clients C        client endpoint count (default 4)\n"
      "  --seed S           key-derivation seed (default 42)\n"
      "  --snapshot-interval K   snapshot every K slots (default 64)\n"
      "  --sync-timeout US  view-sync base timeout, µs (default 25000)\n"
      "  --link-delay US    emulated one-way link latency, µs (default 0;\n"
      "                     must match on every process)\n"
      "  --verbose          protocol debug logging to stderr\n",
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

  long id = -1;
  unsigned n = 4, f = 1, t = 0, shards = 1, depth = 4, batch = 8, clients = 4;
  unsigned long long seed = 42;
  unsigned long snapshot_interval = 64, sync_timeout = 25'000, link_delay = 0;
  bool verbose = false;
  std::string peers_arg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--id") id = std::strtol(next(), nullptr, 10);
    else if (arg == "--peers") peers_arg = next();
    else if (arg == "--n") n = std::strtoul(next(), nullptr, 10);
    else if (arg == "--f") f = std::strtoul(next(), nullptr, 10);
    else if (arg == "--t") t = std::strtoul(next(), nullptr, 10);
    else if (arg == "--shards") shards = std::strtoul(next(), nullptr, 10);
    else if (arg == "--depth") depth = std::strtoul(next(), nullptr, 10);
    else if (arg == "--batch") batch = std::strtoul(next(), nullptr, 10);
    else if (arg == "--clients") clients = std::strtoul(next(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--snapshot-interval")
      snapshot_interval = std::strtoul(next(), nullptr, 10);
    else if (arg == "--sync-timeout")
      sync_timeout = std::strtoul(next(), nullptr, 10);
    else if (arg == "--link-delay")
      link_delay = std::strtoul(next(), nullptr, 10);
    else if (arg == "--verbose") verbose = true;
    else usage(argv[0]);
  }
  if (t == 0) t = f;
  if (id < 0 || id >= static_cast<long>(n) || peers_arg.empty()) {
    usage(argv[0]);
  }

  smr::ServiceConfig config;
  config.with_cluster(n, f, t)
      .with_sessions(clients)
      .with_seed(seed)
      .with_shards(shards)
      .with_pipeline_depth(depth)
      .with_batch(batch)
      .with_snapshots(snapshot_interval)
      .with_link_delay(std::chrono::microseconds(link_delay));
  config.sync_base_timeout_us = static_cast<Duration>(sync_timeout);
  smr::SocketDeployment deployment{parse_peers(peers_arg),
                                   {static_cast<ProcessId>(id)}};
  if (deployment.peers.size() != n) {
    std::fprintf(stderr, "--peers must list exactly %u replicas (got %zu)\n",
                 n, deployment.peers.size());
    return 2;
  }
  // Client endpoints never listen; they dial us.
  deployment.peers.resize(n + clients);

  if (verbose) Log::level = LogLevel::Debug;

  auto server = smr::make_socket_service(config, std::move(deployment));

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  server->start();
  std::printf("smr_server: replica %ld up (n=%u f=%u t=%u shards=%u depth=%u)\n",
              id, n, f, t, shards, depth);
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Stop first: the dump then reads final counters, and replica() is
  // only open while no loop thread runs.
  server->stop();
  const auto self = static_cast<ProcessId>(id);
  const auto engine = server->engine_stats(self);
  using ull = unsigned long long;
  std::printf("--- smr_server replica %ld stats ---\n", id);
  std::printf("replica %ld applied %llu commands (%llu noop slots), "
              "%llu snapshot installs\n",
              id, static_cast<ull>(server->applied_commands(self)),
              static_cast<ull>(server->replica(self).noop_slots()),
              static_cast<ull>(engine.snapshots_installed));
  std::printf("engine: depth %u, batch %u, parked high-water %zu, "
              "view-changed slots %llu, suspected wishes %llu\n",
              engine.effective_depth, engine.effective_batch,
              engine.parked_high_water,
              static_cast<ull>(engine.view_changed_slots),
              static_cast<ull>(engine.suspected_wishes));
  std::printf("%s", server->socket_network()->stats_summary().c_str());
  std::fflush(stdout);
  return 0;
}
