#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiments E1 and E6: the fast path decides in exactly
/// two message delays.
///
/// E1 — vanilla protocol, n = 5f - 1 (paper Fig. 1a, Section 3.1): with a
/// correct leader the protocol terminates in 2 message delays, both with
/// zero faults and with t processes crashing at Delta (the paper's T-faulty
/// two-step executions).
///
/// E6 — generalized protocol with t = 1 at optimal resilience n = 3f + 1
/// (Section 3.4): the first protocol to stay 2-step in the presence of a
/// single fault at n = 3f + 1.

namespace fastbft::bench {
namespace {

void e1_vanilla() {
  header("E1: vanilla protocol, n = 5f - 1, latency in message delays");
  row("%-4s %-4s %-14s %-16s %-10s %-10s", "f", "n", "faults", "delays(no-fault)",
      "delays(t@D)", "msgs(no-fault)");
  for (std::uint32_t f = 1; f <= 4; ++f) {
    std::uint32_t n = 5 * f - 1;
    Scenario clean;
    clean.protocol = Protocol::OursVanilla;
    clean.n = n;
    clean.f = clean.t = f;
    RunMetrics no_fault = run_scenario(clean);

    Scenario faulty = clean;
    // t crash-at-Delta faults among non-leaders: the paper's T-faulty
    // two-step execution shape.
    for (std::uint32_t i = 0; i < f; ++i) {
      faulty.crashes.push_back({n - 1 - i, faulty.delta});
    }
    RunMetrics with_faults = run_scenario(faulty);

    row("%-4u %-4u %-14s %-16.1f %-10.1f %-10llu", f, n,
        ("0 vs " + std::to_string(f) + "@D").c_str(), no_fault.delays,
        with_faults.delays,
        static_cast<unsigned long long>(no_fault.messages));
  }
}

void e6_optimal_resilience() {
  header("E6: generalized t = 1, n = 3f + 1 (optimal resilience, still fast)");
  row("%-4s %-4s %-18s %-18s", "f", "n", "delays(no-fault)",
      "delays(1 crash@D)");
  for (std::uint32_t f = 1; f <= 4; ++f) {
    std::uint32_t n = 3 * f + 1;
    Scenario clean;
    clean.n = n;
    clean.f = f;
    clean.t = 1;
    RunMetrics no_fault = run_scenario(clean);

    Scenario faulty = clean;
    faulty.crashes.push_back({n - 1, faulty.delta});
    RunMetrics with_fault = run_scenario(faulty);

    row("%-4u %-4u %-18.1f %-18.1f", f, n, no_fault.delays, with_fault.delays);
  }
}

void e1_general_grid() {
  header("E1b: generalized protocol, full (f, t) grid at n = 3f + 2t - 1");
  row("%-4s %-4s %-4s %-10s %-12s %-12s", "f", "t", "n", "delays",
      "msgs", "bytes");
  for (std::uint32_t f = 1; f <= 4; ++f) {
    for (std::uint32_t t = 1; t <= f; ++t) {
      Scenario s;
      s.n = consensus::QuorumConfig::min_processes(f, t);
      s.f = f;
      s.t = t;
      RunMetrics m = run_scenario(s);
      row("%-4u %-4u %-4u %-10.1f %-12llu %-12llu", f, t, s.n, m.delays,
          static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes));
    }
  }
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf("bench_fast_path: experiments E1/E6 — two-step latency\n");
  std::printf("(delays are simulated message delays; 2.0 = the paper's "
              "optimal two steps)\n");
  fastbft::bench::e1_vanilla();
  fastbft::bench::e6_optimal_resilience();
  fastbft::bench::e1_general_grid();
  return 0;
}
