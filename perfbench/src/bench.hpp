#pragma once

// Shared pieces of the repository benchmark: the seeded operation
// generator, value encoding and checking, statistics helpers, the result
// record and the in-memory span log. Every workload talks to the system
// through its public API only (smr::make_sim_service, smr::Service,
// smr::ClientSession); see METHOD.md for the workloads and metrics.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "smr/service.hpp"

namespace perfbench {

using fastbft::ProcessId;
using fastbft::TimePoint;

// --- Run arguments and result record -----------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for spans and records.
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `e2e` is printed with --trace 0, `layer` with
/// --trace 1; `problems` non-empty means the correctness gate failed and
/// no numbers are published.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> problems;
  std::vector<std::string> notes;

  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
  void note(std::string what) { notes.push_back(std::move(what)); }
};

// --- Clocks ------------------------------------------------------------------

inline double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
std::int64_t wall_now_ns();
/// CPU time (user + system) of this process, all threads.
double process_cpu_s();

// --- Statistics --------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// --- Seeded generator ----------------------------------------------------------

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  /// Exponential gap with the given mean.
  double exponential(double mean);
  std::uint32_t below(std::uint32_t bound) {
    return static_cast<std::uint32_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// --- Operations and values ------------------------------------------------------

inline constexpr std::uint32_t kKeys = 1024;
inline constexpr std::uint64_t kKeySeed = 42;

struct Op {
  bool is_get = false;
  std::uint32_t key = 0;
  std::uint64_t tag = 0;  // unique per generated put
};

/// Deterministic operation stream: one per session, from (seed, stream).
class OpStream {
 public:
  OpStream(std::uint64_t seed, std::uint32_t stream, double get_share);
  Op next();

 private:
  Rng rng_;
  double get_share_;
  std::uint64_t stream_;
  std::uint64_t count_ = 0;
};

std::string key_name(std::uint32_t key);

/// Put values are `value_bytes` long and self-describing: a header naming
/// the key and the put's tag, then filler derived from the tag. A read
/// that returns bytes no put for that key could have written fails
/// check_value.
std::string make_value(std::uint32_t key, std::uint64_t tag,
                       std::size_t value_bytes);

/// The correctness gate's unique sentinels: 32 distinct seeded keys, each
/// with a value no workload operation writes.
std::vector<std::pair<std::string, std::string>> sentinel_plan(
    std::uint64_t seed);
bool check_value(std::uint32_t key, const std::string& value,
                 std::size_t value_bytes);

// --- Spans ---------------------------------------------------------------------

/// In-memory span log, written out when the run ends. A span is one timed
/// call at a layer boundary; spans of one operation share `op` and point
/// at their parent.
class SpanLog {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    const char* name = "";
    const char* clock = "wall";  // "wall" ns or "virtual" ticks (µs)
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  /// Records a span if capacity remains; returns its id (0 if dropped).
  std::uint64_t add(std::uint64_t parent, std::uint64_t op, const char* name,
                    const char* clock, std::int64_t start, std::int64_t end);
  /// Sets the end of a span recorded earlier with an open end.
  void finish(std::uint64_t id, std::int64_t end) {
    if (id != 0) spans_[id - 1].end = end;
  }
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  template <typename F>
  void for_each(F&& fn) const {
    for (const Span& s : spans_) fn(s);
  }
  /// JSON lines, one span each; returns false if the file cannot be written.
  bool write(const std::string& path, bool append = false) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

// --- Simulated runs (sim.cpp) ----------------------------------------------------

/// The shape of one workload on the deterministic simulator: open-loop
/// Poisson arrivals, snapshots every 64 slots, and replica 0 (the leader
/// of view 1 and session 0's gateway) down over [40 %, 60 %) of every
/// episode.
struct SimShape {
  double get_share = 1.0 / 3.0;
  std::size_t value_bytes = 16;
  bool eager_windows = true;
  std::uint32_t sessions = 2;
  std::uint32_t window = 32;
  double rate_per_s = 2000;  // per virtual second, all sessions
  double virtual_s = 5.0;    // summed over the episodes
  /// Independent failover episodes (fresh cluster, derived seed) that
  /// share the run. One crash's outage depends on the crash's phase
  /// against the slot timers, so the run averages it over several.
  std::uint32_t episodes = 20;
};

struct Recording;  // replay.hpp

struct SimOutcome {
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  // Virtual-time results (ms of simulated time), exact for a seed.
  double vlat_p50_ms = 0;
  double vlat_p99_ms = 0;
  std::uint64_t p99_beyond = 0;
  double outage_ms = 0;      // mean over the episodes
  double outage_max_ms = 0;  // longest over the episodes
  double rejoin_p50_ms = 0;

  // Wall-clock cost of the simulated run (after set-up).
  double wall_s = 0;
  double cpu_s = 0;
  double cpu_us_per_op = 0;  // median over the episodes' measured windows
  std::vector<double> episode_cpu_us_per_op;
  double pooled_ops_s = 0;   // all measured windows taken together
  double pooled_cpu_us_per_op = 0;
  double setup_s = 0;        // median over the set-ups
  std::pair<double, double> setup_quartiles_ms;  // first and third
  double start_ms = 0;       // median time inside start()
  double first_reply_ms = 0; // median start() return -> first replies

  // Counters over the run.
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t failovers = 0;
  std::uint64_t rejected_replies = 0;
  std::uint64_t deadline_timeouts = 0;
  fastbft::smr::SmrNode::EngineStats engine;  // max over replicas
  std::uint64_t apply_lag_max = 0;
  std::uint64_t queued_max = 0;
  std::uint64_t in_flight_max = 0;
  double submit_us = 0;  // median wall time inside put()/get()

  /// Every virtual metric and the message count at full precision: two
  /// runs of one seed must produce the identical string.
  std::string determinism_digest() const;
};

/// Runs `shape` with `seed`. With `recording` set, every envelope is
/// observed and counted, segments are kept for replay, and gauges and
/// spans are sampled (`spans` may be null).
SimOutcome run_sim(const SimShape& shape, std::uint64_t seed,
                   Recording* recording, SpanLog* spans);

// --- Workloads -----------------------------------------------------------------

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Runs the named workload; an unknown name is a problem in the report.
Report run_workload(const Args& args);

}  // namespace perfbench
