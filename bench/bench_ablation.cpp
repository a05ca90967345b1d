#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Ablation benches for design choices:
///  A1 — CertReq fan-out: the paper's minimal 2f + 1 targets vs
///       broadcasting to all n (same liveness, different traffic);
///  A2 — slow path enabled vs disabled in the fault-free common case
///       (what the signed-ack machinery costs when it is not needed);
///  A3 — view-synchronizer base timeout vs dead-leader recovery latency
///       (the detection/stability trade-off behind the paper's "no view
///       change for >= 5 Delta after GST" requirement).

namespace fastbft::bench {
namespace {

RunMetrics run_with_options(std::uint32_t n, std::uint32_t f, std::uint32_t t,
                            consensus::ReplicaOptions replica,
                            viewsync::SynchronizerConfig sync,
                            std::vector<std::pair<ProcessId, TimePoint>>
                                crashes = {}) {
  runtime::ClusterOptions options;
  options.cfg = consensus::QuorumConfig::create(n, f, t);
  options.net.delta = 100;
  options.net.min_delay = 100;
  options.node.replica = replica;
  options.node.sync = sync;
  std::vector<Value> inputs;
  for (std::uint32_t i = 0; i < n; ++i) {
    inputs.push_back(Value::of_string("a" + std::to_string(i)));
  }
  runtime::Cluster cluster(options, std::move(inputs));
  for (auto [id, at] : crashes) cluster.crash_at(id, at);
  cluster.start();
  RunMetrics m;
  m.decided = cluster.run_until_all_correct_decided(10'000'000);
  m.delays = cluster.max_decision_delays();
  m.messages = cluster.network().stats().total_messages();
  m.bytes = cluster.network().stats().total_bytes();
  return m;
}

void a1_cert_req_fanout() {
  header("A1: CertReq fan-out — 2f+1 targets (paper) vs broadcast (n)");
  row("%-4s %-4s %-14s %-16s %-16s %-10s", "f", "n", "fanout", "msgs",
      "bytes", "delays");
  for (std::uint32_t f = 1; f <= 3; ++f) {
    std::uint32_t n = 5 * f - 1;
    for (bool broadcast : {false, true}) {
      consensus::ReplicaOptions replica;
      replica.slow_path = false;
      replica.cert_req_broadcast = broadcast;
      // Dead leader forces a view change, so the CertReq round runs.
      RunMetrics m = run_with_options(n, f, f, replica, {}, {{0, 0}});
      row("%-4u %-4u %-14s %-16llu %-16llu %-10.1f", f, n,
          broadcast ? "broadcast(n)" : "2f+1",
          static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes), m.delays);
    }
  }
  row("%s", "(same recovery latency; the 2f+1 fan-out saves CertReq/CertAck");
  row("%s", " traffic exactly as Section 3.2 intends)");
}

void a2_slow_path_cost() {
  header("A2: slow path machinery cost in the fault-free common case");
  row("%-4s %-4s %-4s %-12s %-14s %-14s", "f", "t", "n", "slow path",
      "msgs", "bytes");
  for (std::uint32_t f = 1; f <= 3; ++f) {
    std::uint32_t t = 1;
    std::uint32_t n = consensus::QuorumConfig::min_processes(f, t);
    for (bool slow : {false, true}) {
      consensus::ReplicaOptions replica;
      replica.slow_path = slow;
      RunMetrics m = run_with_options(n, f, t, replica, {});
      row("%-4u %-4u %-4u %-12s %-14llu %-14llu", f, t, n,
          slow ? "enabled" : "disabled",
          static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes));
    }
  }
  row("%s", "(the signed-ack broadcast roughly doubles common-case traffic —");
  row("%s", " the price of 3-step termination beyond t faults; disable it to");
  row("%s", " get the pure Section-3 protocol)");
}

void a3_timeout_tradeoff() {
  header("A3: synchronizer base timeout vs dead-leader recovery (f=1, n=4)");
  row("%-18s %-18s %-14s", "base timeout (xD)", "recovery (delays)", "msgs");
  for (Duration base : {400, 800, 1200, 2400, 4800}) {
    viewsync::SynchronizerConfig sync;
    sync.base_timeout = base;
    consensus::ReplicaOptions replica;
    replica.slow_path = true;  // the table's traffic includes the slow path
    RunMetrics m = run_with_options(4, 1, 1, replica, sync, {{0, 0}});
    row("%-18.1f %-18.1f %-14llu", static_cast<double>(base) / 100.0,
        m.delays, static_cast<unsigned long long>(m.messages));
  }
  row("%s", "(shorter timeouts recover faster but a timeout below the");
  row("%s", " view-change duration (~6 delays) would churn views before a");
  row("%s", " correct leader can finish — the 5-Delta stability requirement)");
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf(
      "bench_ablation: design-choice ablations (README.md, Experiments)\n");
  fastbft::bench::a1_cert_req_fanout();
  fastbft::bench::a2_slow_path_cost();
  fastbft::bench::a3_timeout_tradeoff();
  return 0;
}
