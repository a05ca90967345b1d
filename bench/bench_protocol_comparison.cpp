#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E8a: cross-protocol comparison. Two framings:
///  * equal guarantees — each protocol at its minimal n for the same (f, t);
///  * equal budget — a fixed fleet of n machines: what does each protocol
///    deliver with it?

namespace fastbft::bench {
namespace {

void equal_guarantees() {
  header("E8a: equal guarantees (f = t), minimal n per protocol");
  row("%-20s %-4s %-4s %-8s %-10s %-12s", "protocol", "f", "n", "delays",
      "msgs", "bytes");
  for (std::uint32_t f = 1; f <= 3; ++f) {
    for (Protocol p : {Protocol::OursVanilla, Protocol::Fab, Protocol::Pbft}) {
      Scenario s;
      s.protocol = p;
      s.f = f;
      s.t = p == Protocol::Pbft ? 1 : f;
      s.n = min_n(p, f, f);
      if (p == Protocol::Pbft) s.n = 3 * f + 1;
      RunMetrics m = run_scenario(s);
      row("%-20s %-4u %-4u %-8.1f %-10llu %-12llu", protocol_name(p), f, s.n,
          m.delays, static_cast<unsigned long long>(m.messages),
          static_cast<unsigned long long>(m.bytes));
    }
  }
}

void equal_budget() {
  header("E8b: equal budget — what 10 machines buy you");
  row("%-20s %-28s %-8s %-14s", "protocol", "guarantee", "delays",
      "delays(f faults)");
  struct Config {
    Protocol p;
    std::uint32_t f, t;
    const char* guarantee;
  };
  // n = 10 everywhere.
  for (const Config& c : {
           Config{Protocol::Ours, 3, 1, "f=3, fast while <=1 fault"},
           Config{Protocol::Ours, 2, 2, "f=2, fast while <=2 faults"},
           Config{Protocol::Fab, 2, 1, "f=2, fast while <=1 fault"},
           Config{Protocol::Pbft, 3, 1, "f=3, never 2-step"},
       }) {
    Scenario clean;
    clean.protocol = c.p;
    clean.n = 10;
    clean.f = c.f;
    clean.t = c.t;
    RunMetrics no_fault = run_scenario(clean);

    Scenario faulty = clean;
    for (std::uint32_t i = 0; i < c.f; ++i) {
      faulty.crashes.push_back({9 - i, 0});
    }
    faulty.limit = 3'000'000;
    RunMetrics with_faults = run_scenario(faulty);

    char faulty_col[32];
    if (with_faults.decided) {
      std::snprintf(faulty_col, sizeof(faulty_col), "%.1f", with_faults.delays);
    } else {
      std::snprintf(faulty_col, sizeof(faulty_col), "stalls*");
    }
    row("%-20s %-28s %-8.1f %-14s", protocol_name(c.p), c.guarantee,
        no_fault.delays, faulty_col);
  }
  row("%s", "");
  row("%s", "(the f-fault column shows degradation: ours falls back to the");
  row("%s", " 3-step slow path without extra processes; PBFT is always");
  row("%s", " 3-step but tolerates f=3 with 10 machines. *Our FaB");
  row("%s", " reimplementation omits FaB's separate 3-phase fallback, so it");
  row("%s", " cannot decide once more than t processes fail — full FaB");
  row("%s", " would fall back at the cost of extra phases.)");
}

void message_complexity() {
  header("E8c: common-case message complexity by cluster size (no faults)");
  row("%-6s %-22s %-22s %-22s", "n", "ours msgs(bytes)", "FaB msgs(bytes)",
      "PBFT msgs(bytes)");
  for (std::uint32_t f = 1; f <= 4; ++f) {
    auto fmt = [&](Protocol p, std::uint32_t n, std::uint32_t t) {
      Scenario s;
      s.protocol = p;
      s.n = n;
      s.f = f;
      s.t = t;
      RunMetrics m = run_scenario(s);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%llu (%llu)",
                    static_cast<unsigned long long>(m.messages),
                    static_cast<unsigned long long>(m.bytes));
      return std::string(buf);
    };
    std::uint32_t n_ours = 5 * f - 1;
    std::uint32_t n_fab = 5 * f + 1;
    std::uint32_t n_pbft = 3 * f + 1;
    char n_label[32];
    std::snprintf(n_label, sizeof(n_label), "f=%u", f);
    row("%-6s %-22s %-22s %-22s", n_label,
        fmt(Protocol::OursVanilla, n_ours, f).c_str(),
        fmt(Protocol::Fab, n_fab, f).c_str(),
        fmt(Protocol::Pbft, n_pbft, 1).c_str());
  }
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf("bench_protocol_comparison: experiment E8 — ours vs FaB vs "
              "PBFT\n");
  fastbft::bench::equal_guarantees();
  fastbft::bench::equal_budget();
  fastbft::bench::message_complexity();
  return 0;
}
