#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "fab/fab.hpp"
#include "pbft/pbft.hpp"
#include "runtime/cluster.hpp"

/// \file bench_util.hpp
/// Shared helpers for the experiment binaries in bench/. Each binary
/// regenerates experiments listed in README.md ("Experiments") and
/// prints a table.

namespace fastbft::bench {

/// Metrics of one single-shot consensus run.
struct RunMetrics {
  bool decided = false;
  double delays = 0;            // latest correct decision, in Delta units
  std::uint64_t messages = 0;   // total messages sent cluster-wide
  std::uint64_t bytes = 0;      // total bytes sent cluster-wide
  View max_view = 0;            // highest view in which someone decided
  bool any_slow_path = false;
  std::size_t max_cert_bytes = 0;  // largest accepted progress certificate
};

enum class Protocol { Ours, OursVanilla, Fab, Pbft };

inline const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::Ours: return "ours(3f+2t-1)";
    case Protocol::OursVanilla: return "ours-vanilla(5f-1)";
    case Protocol::Fab: return "FaB(3f+2t+1)";
    case Protocol::Pbft: return "PBFT(3f+1)";
  }
  return "?";
}

/// Minimum cluster size for a protocol at (f, t).
inline std::uint32_t min_n(Protocol p, std::uint32_t f, std::uint32_t t) {
  switch (p) {
    case Protocol::Ours: return consensus::QuorumConfig::min_processes(f, t);
    case Protocol::OursVanilla:
      return consensus::QuorumConfig::min_processes(f, f);
    case Protocol::Fab: return fab::FabConfig::min_processes(f, t);
    case Protocol::Pbft: return 3 * f + 1;
  }
  return 0;
}

struct Scenario {
  Protocol protocol = Protocol::Ours;
  std::uint32_t n = 4, f = 1, t = 1;
  std::uint64_t seed = 1;
  /// Processes crashed at the given times before/at start.
  std::vector<std::pair<ProcessId, TimePoint>> crashes;
  /// Custom Byzantine replacements.
  std::vector<std::pair<ProcessId, runtime::ProcessFactory>> byzantine;
  Duration delta = 100;
  TimePoint gst = 0;
  TimePoint limit = 50'000'000;
};

/// Runs one single-shot consensus scenario to completion (all correct
/// processes decided) and collects metrics.
RunMetrics run_scenario(const Scenario& scenario);

/// printf-style row helper so the tables line up.
template <typename... Args>
void row(const char* fmt, Args... args) {
  std::printf(fmt, args...);
  std::printf("\n");
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace fastbft::bench
