#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/harness.hpp"
#include "common/bytes.hpp"

/// chaos_fuzz — seeded chaos runner / replayer / minimizer.
///
///   chaos_fuzz --seed 7                      one seeded run, full report
///   chaos_fuzz --seeds 25 --base 1000        sweep seeds base..base+24
///   chaos_fuzz --seed 7 --shards 4
///   chaos_fuzz --seed 7 --inject-bug         unsafe reply quorum + liar:
///                                            the checker MUST fail
///   chaos_fuzz --replay sched.hex            re-run a schedule byte-for-byte
///   chaos_fuzz --seeds 25 --artifact-dir out write seed + minimized
///                                            schedule hex on any failure
///
/// Exit status: 0 = all runs passed, 1 = a run failed (checker violation
/// or divergent stores), 2 = usage error. A failing run is automatically
/// delta-debug minimized and both the original and minimized schedules
/// are printed (and dumped under --artifact-dir) as replayable hex.
///
/// Reproducibility: the printed history/envelope digests are
/// order-sensitive SHA-256 witnesses of the full run; equal seed =>
/// equal digests, bit for bit (see docs/CHAOS.md).

namespace {

using namespace fastbft;

struct Args {
  std::uint64_t seed = 1;
  std::uint32_t seeds = 1;
  std::uint64_t base = 0;
  bool base_set = false;
  std::uint32_t shards = 1;
  std::uint32_t sessions = 2;
  std::uint32_t ops = 30;
  bool inject_bug = false;
  bool print_only = false;
  std::string replay_file;
  std::string artifact_dir;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: chaos_fuzz [--seed S] [--seeds N] [--base B] [--shards S]\n"
      "                  [--sessions K] [--ops N] [--inject-bug]\n"
      "                  [--print] [--replay FILE]\n"
      "                  [--artifact-dir D]\n");
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seeds") {
      const char* v = next();
      if (!v) return false;
      args.seeds = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--base") {
      const char* v = next();
      if (!v) return false;
      args.base = std::strtoull(v, nullptr, 10);
      args.base_set = true;
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return false;
      args.shards = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--sessions") {
      const char* v = next();
      if (!v) return false;
      args.sessions = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--ops") {
      const char* v = next();
      if (!v) return false;
      args.ops = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--inject-bug") {
      args.inject_bug = true;
    } else if (arg == "--print") {
      args.print_only = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (!v) return false;
      args.replay_file = v;
    } else if (arg == "--artifact-dir") {
      const char* v = next();
      if (!v) return false;
      args.artifact_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

std::string hex8(const crypto::Digest& digest) {
  return to_hex_prefix(ByteView(digest.data(), digest.size()), 8);
}

void report(const chaos::Schedule& schedule, const chaos::RunResult& result) {
  std::printf(
      "seed %llu: %s  ops=%llu timeouts=%llu "
      "envelopes=%llu(+%llu dropped)  states=%llu%s\n"
      "          history=%s envelopes=%s\n",
      static_cast<unsigned long long>(schedule.seed),
      result.failed() ? "FAIL" : "ok",
      static_cast<unsigned long long>(result.ops_completed),
      static_cast<unsigned long long>(result.ops_timed_out),
      static_cast<unsigned long long>(result.envelopes),
      static_cast<unsigned long long>(result.envelopes_dropped),
      static_cast<unsigned long long>(result.check.states_explored),
      result.check.conclusive ? "" : " (INCONCLUSIVE)",
      hex8(result.history_digest).c_str(),
      hex8(result.envelope_digest).c_str());
}

void dump_artifact(const std::string& dir, const std::string& name,
                   const std::string& content) {
  if (dir.empty()) return;
  std::string path = dir + "/" + name;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write artifact %s\n", path.c_str());
    return;
  }
  out << content << "\n";
  std::printf("artifact: %s\n", path.c_str());
}

/// Runs one schedule; on failure, minimizes and dumps artifacts.
/// Returns true iff the run passed.
bool run_one(const chaos::Harness& harness, const chaos::Schedule& schedule,
             const std::string& artifact_dir) {
  chaos::RunResult result = harness.run(schedule);
  report(schedule, result);
  if (!result.failed()) return true;

  if (!result.check.linearizable) {
    std::printf("--- violation ---\n%s", result.check.violation.c_str());
  }
  if (!result.stores_converged) {
    std::printf("--- correct replicas failed to converge ---\n");
  }
  std::printf("--- schedule ---\n%s", schedule.to_string().c_str());
  std::printf("schedule-hex: %s\n", schedule.to_hex().c_str());

  std::printf("minimizing...\n");
  chaos::Harness::ShrinkResult shrunk = harness.shrink(schedule);
  std::printf("minimized after %u runs (%u events removed):\n%s",
              shrunk.runs, shrunk.removed_events,
              shrunk.schedule.to_string().c_str());
  std::printf("minimized-hex: %s\n", shrunk.schedule.to_hex().c_str());

  std::string tag = std::to_string(schedule.seed);
  dump_artifact(artifact_dir, "chaos-seed-" + tag + ".txt",
                "seed " + tag + "\n" + schedule.to_string() + "hex " +
                    schedule.to_hex());
  dump_artifact(artifact_dir, "chaos-seed-" + tag + "-min.hex",
                shrunk.schedule.to_hex());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }

  chaos::Harness harness;

  if (!args.replay_file.empty()) {
    std::ifstream in(args.replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", args.replay_file.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string hex = buffer.str();
    // Strip whitespace/newlines around the hex blob.
    std::string cleaned;
    for (char c : hex) {
      if (!std::isspace(static_cast<unsigned char>(c))) cleaned += c;
    }
    auto schedule = chaos::Schedule::from_hex(cleaned);
    if (!schedule) {
      std::fprintf(stderr, "malformed schedule hex in %s\n",
                   args.replay_file.c_str());
      return 2;
    }
    std::printf("replaying:\n%s", schedule->to_string().c_str());
    return run_one(harness, *schedule, args.artifact_dir) ? 0 : 1;
  }

  chaos::ScenarioOptions scenario;
  scenario.shards = args.shards;
  scenario.sessions = args.sessions;
  scenario.ops_per_session = args.ops;
  scenario.force_liar = args.inject_bug;

  std::uint64_t first = args.base_set ? args.base : args.seed;
  bool all_passed = true;
  for (std::uint32_t i = 0; i < args.seeds; ++i) {
    chaos::Schedule schedule =
        chaos::generate_schedule(first + i, scenario);
    schedule.unsafe_first_reply_quorum = args.inject_bug;
    if (args.print_only) {
      std::printf("%s", schedule.to_string().c_str());
      continue;
    }
    if (!run_one(harness, schedule, args.artifact_dir)) all_passed = false;
  }
  return all_passed ? 0 : 1;
}
