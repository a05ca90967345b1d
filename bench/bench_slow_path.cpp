#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E5: the slow path of Appendix A (paper
/// Fig. 5). With n = 3f + 2t - 1, the protocol decides in:
///   2 delays (fast path)  when actual faults <= t,
///   3 delays (slow path)  when t < actual faults <= f,
/// without any view change in either case.

namespace fastbft::bench {
namespace {

void fault_sweep() {
  header("E5: actual faults vs path taken (f = 3, t = 1, n = 3f+2t-1 = 10)");
  row("%-14s %-10s %-12s %-12s", "actual faults", "delays", "path", "view");
  const std::uint32_t f = 3, t = 1;
  const std::uint32_t n = consensus::QuorumConfig::min_processes(f, t);
  for (std::uint32_t faults = 0; faults <= f; ++faults) {
    Scenario s;
    s.n = n;
    s.f = f;
    s.t = t;
    for (std::uint32_t i = 0; i < faults; ++i) {
      s.crashes.push_back({n - 1 - i, 0});  // non-leaders, dead from start
    }
    RunMetrics m = run_scenario(s);
    row("%-14u %-10.1f %-12s %-12llu", faults, m.delays,
        m.any_slow_path ? "slow (3-step)" : "fast (2-step)",
        static_cast<unsigned long long>(m.max_view));
  }
}

void crossover_grid() {
  header("E5b: path crossover across (f, t) grids, faults = t and t + 1");
  row("%-4s %-4s %-4s %-18s %-18s", "f", "t", "n", "faults=t", "faults=t+1");
  for (std::uint32_t f = 2; f <= 4; ++f) {
    for (std::uint32_t t = 1; t < f; ++t) {
      std::uint32_t n = consensus::QuorumConfig::min_processes(f, t);
      auto run_with = [&](std::uint32_t faults) {
        Scenario s;
        s.n = n;
        s.f = f;
        s.t = t;
        for (std::uint32_t i = 0; i < faults; ++i) {
          s.crashes.push_back({n - 1 - i, 0});
        }
        RunMetrics m = run_scenario(s);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.1f (%s)", m.delays,
                      m.any_slow_path ? "slow" : "fast");
        return std::string(buf);
      };
      row("%-4u %-4u %-4u %-18s %-18s", f, t, n, run_with(t).c_str(),
          run_with(t + 1).c_str());
    }
  }
}

void slow_path_traffic() {
  header("E5c: traffic overhead of the slow path (f = 2, t = 1, n = 7)");
  row("%-14s %-10s %-12s %-12s", "actual faults", "delays", "msgs", "bytes");
  for (std::uint32_t faults : {0u, 1u, 2u}) {
    Scenario s;
    s.n = 7;
    s.f = 2;
    s.t = 1;
    for (std::uint32_t i = 0; i < faults; ++i) {
      s.crashes.push_back({6 - i, 0});
    }
    RunMetrics m = run_scenario(s);
    row("%-14u %-10.1f %-12llu %-12llu", faults, m.delays,
        static_cast<unsigned long long>(m.messages),
        static_cast<unsigned long long>(m.bytes));
  }
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf("bench_slow_path: experiment E5 — Appendix A slow path\n");
  fastbft::bench::fault_sweep();
  fastbft::bench::crossover_grid();
  fastbft::bench::slow_path_traffic();
  return 0;
}
