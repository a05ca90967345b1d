#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E3: the view-change protocol of Fig. 1b — two
/// phases (vote collection, then CertReq/CertAck certification) before the
/// new leader proposes. Measures time-to-decision and message complexity
/// when the initial leader is dead, across f, for ours vs the baselines.

namespace fastbft::bench {
namespace {

void crashed_leader_sweep() {
  header("E3: initial leader dead from the start; time until decision");
  row("%-20s %-4s %-4s %-4s %-10s %-12s %-10s", "protocol", "f", "t", "n",
      "delays", "msgs", "view");
  for (std::uint32_t f = 1; f <= 3; ++f) {
    for (Protocol p : {Protocol::Ours, Protocol::Fab, Protocol::Pbft}) {
      Scenario s;
      s.protocol = p;
      s.f = f;
      s.t = 1;
      s.n = min_n(p, f, 1);
      s.crashes.push_back({0, 0});  // leader of view 1 never speaks
      RunMetrics m = run_scenario(s);
      row("%-20s %-4u %-4u %-4u %-10.1f %-12llu %-10llu", protocol_name(p), f,
          1u, s.n, m.delays, static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.max_view));
    }
  }
}

void consecutive_leader_crashes() {
  header("E3b: k consecutive dead leaders (ours, f = 3, t = 1, n = 10)");
  row("%-4s %-10s %-12s %-10s", "k", "delays", "msgs", "view");
  for (std::uint32_t k = 1; k <= 3; ++k) {
    Scenario s;
    s.f = 3;
    s.t = 1;
    s.n = 10;
    for (std::uint32_t i = 0; i < k; ++i) s.crashes.push_back({i, 0});
    RunMetrics m = run_scenario(s);
    row("%-4u %-10.1f %-12llu %-10llu", k, m.delays,
        static_cast<unsigned long long>(m.messages),
        static_cast<unsigned long long>(m.max_view));
  }
}

void crash_timing_sensitivity() {
  header("E3c: leader crash timing vs recovery (ours, f=2, t=2, n=9)");
  row("%-14s %-10s %-10s %-14s", "crash at", "delays", "view",
      "value survived");
  for (TimePoint at : {0, 50, 100, 150, 200, 250}) {
    Scenario s;
    s.f = 2;
    s.t = 2;
    s.n = 9;
    s.crashes.push_back({0, at});
    RunMetrics m = run_scenario(s);
    // If the proposal got out (crash >= delta) the adopted value must
    // survive the view change; decided view > 1 indicates recovery ran.
    row("%-14lld %-10.1f %-10llu %-14s", static_cast<long long>(at), m.delays,
        static_cast<unsigned long long>(m.max_view),
        m.max_view > 1 ? "via view change" : "fast path");
  }
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf("bench_view_change: experiment E3 — view-change cost\n");
  std::printf("(delays include the synchronizer timeout that detects the "
              "dead leader;\n timeout base = 12 delta, so ~14-16 delta total "
              "is the expected shape)\n");
  fastbft::bench::crashed_leader_sweep();
  fastbft::bench::consecutive_leader_crashes();
  fastbft::bench::crash_timing_sensitivity();
  return 0;
}
