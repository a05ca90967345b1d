#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E2: the resilience table of the paper's
/// introduction — how many processes each protocol needs for f Byzantine
/// faults while staying fast with up to t actual faults, and the measured
/// common-case latency at that minimal size.
///
///   ours:   n = 3f + 2t - 1   (this paper; 4 processes at f = t = 1)
///   FaB:    n = 3f + 2t + 1   (Martin & Alvisi; 6 processes at f = t = 1)
///   PBFT:   n = 3f + 1        (not fast: 3 message delays)

namespace fastbft::bench {
namespace {

void minimal_sizes() {
  header("E2: minimum processes for f-resilient t-fast consensus");
  row("%-4s %-4s %-16s %-16s %-12s", "f", "t", "ours(3f+2t-1)",
      "FaB(3f+2t+1)", "PBFT(3f+1)");
  for (std::uint32_t f = 1; f <= 5; ++f) {
    for (std::uint32_t t = 1; t <= f; ++t) {
      row("%-4u %-4u %-16u %-16u %-12u", f, t, min_n(Protocol::Ours, f, t),
          min_n(Protocol::Fab, f, t), min_n(Protocol::Pbft, f, t));
    }
  }
}

void measured_at_minimum() {
  header("E2b: measured latency and traffic at each protocol's minimal n");
  row("%-20s %-4s %-4s %-4s %-8s %-10s %-12s", "protocol", "f", "t", "n",
      "delays", "msgs", "bytes");
  for (std::uint32_t f = 1; f <= 3; ++f) {
    for (std::uint32_t t = 1; t <= f; ++t) {
      for (Protocol p : {Protocol::Ours, Protocol::Fab, Protocol::Pbft}) {
        Scenario s;
        s.protocol = p;
        s.f = f;
        // PBFT has no fast-path parameter; its QuorumConfig only needs
        // n >= 3f + 1, which holds with t = 1.
        s.t = p == Protocol::Pbft ? 1 : t;
        s.n = min_n(p, f, t);
        RunMetrics m = run_scenario(s);
        row("%-20s %-4u %-4u %-4u %-8.1f %-10llu %-12llu", protocol_name(p),
            f, t, s.n, m.delays, static_cast<unsigned long long>(m.messages),
            static_cast<unsigned long long>(m.bytes));
      }
    }
  }
}

void headline_f1t1() {
  header("E2c: the paper's headline — f = t = 1");
  row("%-20s %-4s %-8s %-40s", "protocol", "n", "delays", "note");
  {
    Scenario s;
    s.n = 4;
    RunMetrics m = run_scenario(s);
    row("%-20s %-4u %-8.1f %-40s", protocol_name(Protocol::Ours), 4u, m.delays,
        "optimal for ANY psync Byzantine consensus");
  }
  {
    Scenario s;
    s.protocol = Protocol::Fab;
    s.n = 6;
    RunMetrics m = run_scenario(s);
    row("%-20s %-4u %-8.1f %-40s", protocol_name(Protocol::Fab), 6u, m.delays,
        "two more processes for the same guarantee");
  }
  {
    Scenario s;
    s.protocol = Protocol::Pbft;
    s.n = 4;
    RunMetrics m = run_scenario(s);
    row("%-20s %-4u %-8.1f %-40s", protocol_name(Protocol::Pbft), 4u, m.delays,
        "optimal resilience but one extra delay");
  }
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf("bench_resilience_table: experiment E2 — resilience vs speed\n");
  fastbft::bench::minimal_sizes();
  fastbft::bench::measured_at_minimum();
  fastbft::bench::headline_f1t1();
  return 0;
}
