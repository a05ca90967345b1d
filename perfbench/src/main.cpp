// perfbench: the repository benchmark program. Runs one workload with one
// seed and prints its metrics; perfbench/run.py builds it and checks the
// result. Usage:
//
//   perfbench --workload sim-failover|sim-bulk-put --seed N --seconds S
//             --trace 0|1 [--commit ID] [--out-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// the correctness gate passed.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

[[noreturn]] void usage(const char* argv0) {
  std::string names;
  for (const std::string& name : perfbench::workload_names()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::fprintf(stderr,
               "usage: %s --workload %s --seed N --seconds S --trace 0|1 "
               "[--commit ID] [--out-dir DIR]\n",
               argv0, names.c_str());
  std::exit(2);
}

void print_metric_lines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(const Report& report, bool correct,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", report.attempted, report.failed);
  bool first = true;
  if (correct) {
    for (const Metric& m : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") args.workload = next();
    else if (arg == "--seed") args.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seconds") args.seconds = std::atoi(next());
    else if (arg == "--trace") trace = std::atoi(next());
    else if (arg == "--commit") commit = next();
    else if (arg == "--out-dir") args.out_dir = next();
    else usage(argv[0]);
  }
  if (args.workload.empty() || args.seconds < 1 || (trace != 0 && trace != 1)) {
    usage(argv[0]);
  }
  args.trace = trace == 1;
  fastbft::Log::level = fastbft::LogLevel::Error;
  if (args.trace) ::mkdir(args.out_dir.c_str(), 0755);

  // Every record names where it came from.
  std::printf("env {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": "
              "\"%s\", \"commit\": \"%s\", \"FASTBFT_ENFORCE_INVARIANTS\": %d, "
              "\"seed\": %" PRIu64 ", \"workload\": \"%s\", \"seconds\": %d, "
              "\"trace\": %d}\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, __VERSION__,
              commit.c_str(), FASTBFT_ENFORCE_INVARIANTS, args.seed,
              args.workload.c_str(), args.seconds, trace);
  std::fflush(stdout);

  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage(argv[0]);
  }
  Report report = perfbench::run_workload(args);
  if (report.attempted == 0) report.problem("no operation was attempted");
  const std::vector<Metric>& metrics = args.trace ? report.layer : report.e2e;
  const bool correct = report.problems.empty();

  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::printf("FAILED: %s\n", problem.c_str());
  }
  const double fail_share =
      report.attempted == 0 ? 0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("%s %s (seed %" PRIu64 "):\n", args.workload.c_str(),
              args.trace ? "per-layer metrics" : "end-to-end metrics",
              args.seed);
  if (correct) print_metric_lines(metrics);
  std::printf("  %-34s %.6g fraction (%" PRIu64 " of %" PRIu64 " attempted)\n",
              "fail_share", fail_share, report.failed, report.attempted);
  print_json(report, correct, metrics);
  return correct ? 0 : 1;
}
