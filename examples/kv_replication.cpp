#include <chrono>
#include <cstdio>

#include "smr/service.hpp"

/// Replicated key-value store: the classic SMR application the paper's
/// introduction motivates. Seven replicas (f = 2, t = 1), a client stream
/// of PUT/DEL commands, one replica crashing mid-stream — all surviving
/// replicas end with byte-identical stores.
///
/// Run: ./build/examples/kv_replication

using namespace fastbft;
using smr::Command;

int main() {
  smr::ServiceConfig config;
  config.with_cluster(/*n=*/7, /*f=*/2, /*t=*/1).with_batch(4);
  config.sim_net.delta = 100;
  config.sim_net.min_delay = 100;
  auto service = smr::make_sim_service(config);
  sim::Scheduler& sched = service->sim_network()->scheduler();
  service->start();
  sched.schedule_at(700, [&] { service->crash(6); });  // dies mid-stream

  // A client submits a session's worth of commands through replica 2.
  const std::vector<Command> commands = {
      Command::put("user:1:name", "alice", 1, 1),
      Command::put("user:1:plan", "pro", 1, 2),
      Command::put("user:2:name", "bob", 1, 3),
      Command::put("user:2:plan", "free", 1, 4),
      Command::put("user:1:plan", "enterprise", 1, 5),
      Command::del("user:2:plan", 1, 6),
      Command::put("user:3:name", "carol", 1, 7),
      Command::put("billing:cycle", "2026-06", 1, 8),
      Command::del("user:3:name", 1, 9),
  };
  sched.schedule_at(0, [&] {
    for (const Command& cmd : commands) service->replica(2).submit(cmd);
  });

  std::printf("replicating %zu commands across %u replicas (replica 6 "
              "crashes at t=700)...\n",
              commands.size(), config.cluster.n);
  // Log one replica's progress, then wait for every correct replica.
  std::uint64_t logged = 0;
  service->run_until(
      [&] {
        std::uint64_t applied = service->replica(1).applied_commands();
        if (applied != logged) {
          std::printf("  t=%llu: p1 has applied %llu commands\n",
                      static_cast<unsigned long long>(sched.now()),
                      static_cast<unsigned long long>(applied));
          logged = applied;
        }
        return logged == commands.size();
      },
      std::chrono::milliseconds(2000));
  service->await_applied(commands.size(), std::chrono::milliseconds(2000));

  std::printf("\nfinal state on each surviving replica:\n");
  for (ProcessId id = 0; id < 6; ++id) {
    const smr::SmrNode& node = service->replica(id);
    auto digest = node.store().state_digest();
    std::printf("  p%u: %llu commands applied, user:1:plan=%s, digest=%s...\n",
                id, static_cast<unsigned long long>(node.applied_commands()),
                node.store().get("user:1:plan").value_or("<none>").c_str(),
                to_hex(Bytes(digest.begin(), digest.begin() + 6)).c_str());
  }

  bool converged = service->stores_agree();
  std::printf("\nreplica state machines identical: %s\n",
              converged ? "yes" : "NO (bug!)");
  return converged ? 0 : 1;
}
