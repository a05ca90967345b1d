#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/histogram.hpp"
#include "net/stats.hpp"
#include "smr/service.hpp"
#include "smr/shard.hpp"
#include "smr/smr_node.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E8d: replicated state machine throughput on
/// top of the consensus core — decided commands per 1000 simulated Delta,
/// by batch size, cluster configuration and pipeline depth. A sequential
/// log (depth 1) pays ~2 message delays plus slot-turnaround per slot, so
/// batching is one throughput lever; the slot-multiplexed engine adds the
/// second: up to `pipeline_depth` slots run their fast paths concurrently
/// and a reorder buffer keeps the apply order sequential.
///
/// Experiment E9 repeats the pipeline-depth sweep on the threaded runtime
/// (smr::Service's threaded backend, commands injected into every replica
/// before start, no client traffic): real OS threads, steady-clock timers,
/// a fixed per-link delivery delay modelling a LAN — wall-clock seconds
/// instead of simulated Delta.
///
/// Experiment E11 is the client's-eye view: k concurrent ClientSessions
/// (smr::Service over the threaded runtime) run a closed loop with a
/// bounded in-flight window — a request completes only on f + 1 matching
/// signed replica replies, and its completion funds the next submission.
/// Unlike E9 (which counts replica-side applies), E11 pays the full
/// client path: the request broadcast to every replica, execution, reply
/// signing and quorum verification per request.
///
/// Experiment E13 is the sharding sweep: one replica process hosts S
/// consensus groups over a hash-partitioned keyspace (SmrOptions::
/// num_groups), all sharing the node's verification cache and transport.
/// At a fixed per-group pipeline depth the in-flight slot budget scales
/// with S, so aggregate wall-clock throughput must too — the scale-out
/// lever once deepening a single log's pipeline saturates.
///
/// Experiment E14 is the open-loop latency harness: Poisson arrivals at a
/// TARGET rate through smr::ClientSession with an effectively unbounded
/// window — unlike E11's closed loop, a slow service does not slow the
/// arrival process down, so queueing shows up as completion latency
/// instead of silently lowering the offered load. Per-op latencies land in
/// a log-bucketed histogram (common/histogram.hpp) and each
/// (mode, rate) cell reports p50/p99/p999 — the latency-vs-offered-rate
/// curve, swept across static pipeline depths and the adaptive controller
/// (docs/ADAPTIVE.md, docs/PERFORMANCE.md).
///
/// Experiment E15 leaves shared memory entirely: the 4 replicas are
/// forked OS processes whose only channel is loopback TCP through
/// net::SocketNetwork (length-prefixed frames, epoll readiness loops,
/// writev coalescing), driven by in-process smr::ClientSessions. An
/// emulated one-way link delay (SocketNetworkConfig::tx_delay_us) stands
/// in for a real network RTT — the same technique as E9's link delay —
/// so the depth sweep exposes pipelining (depth d overlaps d slots' link
/// round-trips) instead of single-core scheduler noise.
///
/// Experiment E10 measures what KV snapshots buy under a crash/recover
/// schedule (docs/CATCHUP.md): without them, a crashed replica's frozen
/// watermark pins every survivor's decided-value retention from the crash
/// slot on (memory grows with traffic) and a state-free rejoiner can never
/// recover the pruned prefix; with them, retention stays bounded near one
/// snapshot interval and the rejoiner recovers by state transfer.

namespace fastbft::smr {
namespace {

/// Machine-readable record sink: every experiment row is also appended to
/// a JSON array (BENCH_smr.json) so the perf trajectory is tracked in the
/// repo and CI can diff runs against the committed baseline.
class BenchRecorder {
 public:
  /// `config` is a JSON object fragment like "\"n\":4,\"depth\":8".
  /// Rates that do not apply to an experiment are recorded as 0.
  void add(const char* experiment, const std::string& config,
           double cmds_per_sec, double cmds_per_kdelta, double wall_ms,
           std::uint64_t messages, std::uint64_t bytes, std::uint64_t allocs,
           std::uint64_t alloc_bytes) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"experiment\": \"%s\", \"config\": {%s}, "
                  "\"cmds_per_sec\": %.1f, \"cmds_per_kdelta\": %.1f, "
                  "\"wall_ms\": %.2f, \"messages\": %llu, \"bytes\": %llu, "
                  "\"allocs\": %llu, \"alloc_bytes\": %llu}",
                  experiment, config.c_str(), cmds_per_sec, cmds_per_kdelta,
                  wall_ms, static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(allocs),
                  static_cast<unsigned long long>(alloc_bytes));
    records_.emplace_back(buf);
  }

  /// Latency-experiment row: completion-latency percentiles ride along as
  /// top-level fields so gating scripts can regress on p99 directly.
  void add_latency(const char* experiment, const std::string& config,
                   double cmds_per_sec, double wall_ms, double mean_us,
                   std::uint64_t p50_us, std::uint64_t p99_us,
                   std::uint64_t p999_us) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"experiment\": \"%s\", \"config\": {%s}, "
                  "\"cmds_per_sec\": %.1f, \"wall_ms\": %.2f, "
                  "\"mean_us\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu, "
                  "\"p999_us\": %llu}",
                  experiment, config.c_str(), cmds_per_sec, wall_ms, mean_us,
                  static_cast<unsigned long long>(p50_us),
                  static_cast<unsigned long long>(p99_us),
                  static_cast<unsigned long long>(p999_us));
    records_.emplace_back(buf);
  }

  bool write(const std::string& path, const std::string& label) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\n  \"schema\": \"fastbft-bench-smr-v1\",\n  \"run\": \""
        << label << "\",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::string> records_;
};

BenchRecorder g_recorder;

struct ThroughputResult {
  double commands_per_kdelta = 0;
  Slot slots_used = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double ticks_per_command = 0;
  std::uint32_t max_inflight_slots = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_alloc_bytes = 0;
};

ThroughputResult run_throughput(consensus::QuorumConfig cfg,
                                std::uint32_t batch, std::uint64_t commands,
                                std::uint64_t seed = 1,
                                std::uint32_t pipeline_depth = 1) {
  ServiceConfig config;
  config.cluster = cfg;
  config.sim_net.delta = 100;
  config.sim_net.min_delay = 100;
  config.sim_net.seed = seed;
  config.smr.max_batch = batch;
  config.smr.pipeline_depth = pipeline_depth;

  std::uint64_t allocs_before = net::PayloadStats::allocs();
  std::uint64_t alloc_bytes_before = net::PayloadStats::alloc_bytes();
  auto service = make_sim_service(config);
  service->start();
  sim::Scheduler& sched = service->sim_network()->scheduler();
  sched.schedule_at(0, [&] {
    for (std::uint64_t i = 1; i <= commands; ++i) {
      service->replica(0).submit(Command::put("key" + std::to_string(i % 64),
                                              "value-" + std::to_string(i),
                                              1, i));
    }
  });

  // Run until every node applied everything (or a generous bound).
  service->await_applied(commands, std::chrono::milliseconds(50'000));

  ThroughputResult result;
  double time = static_cast<double>(sched.now());
  if (time > 0) {
    result.commands_per_kdelta =
        static_cast<double>(commands) / (time / (100.0 * 1000.0));
    result.ticks_per_command = time / static_cast<double>(commands);
  }
  result.slots_used = service->replica(0).current_slot();
  result.messages = service->sim_network()->stats().total_messages();
  result.bytes = service->sim_network()->stats().total_bytes();
  for (ProcessId id = 0; id < cfg.n; ++id) {
    result.max_inflight_slots =
        std::max(result.max_inflight_slots,
                 service->replica(id).engine().inflight_high_water());
  }
  result.payload_allocs = net::PayloadStats::allocs() - allocs_before;
  result.payload_alloc_bytes =
      net::PayloadStats::alloc_bytes() - alloc_bytes_before;
  return result;
}

std::string config_json(std::uint32_t n, std::uint32_t f, std::uint32_t t,
                        std::uint32_t batch, std::uint32_t depth,
                        std::uint64_t commands,
                        std::int64_t link_delay_us = -1) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"n\": %u, \"f\": %u, \"t\": %u, \"batch\": %u, "
                "\"depth\": %u, \"commands\": %llu, \"link_delay_us\": %lld",
                n, f, t, batch, depth,
                static_cast<unsigned long long>(commands),
                static_cast<long long>(link_delay_us));
  return buf;
}

void pipeline_sweep() {
  std::printf("\n=== E8g: SMR throughput by pipeline depth (n = 4, "
              "f = t = 1, batch = 8, 400 commands) ===\n");
  std::printf("%-8s %-18s %-10s %-12s %-16s %-10s\n", "depth",
              "cmds/1000delta", "slots", "msgs", "delta/command",
              "inflight");
  double baseline = 0;
  for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    auto cfg = consensus::QuorumConfig::create(4, 1, 1);
    auto r = run_throughput(cfg, 8, 400, /*seed=*/1, depth);
    if (depth == 1) baseline = r.commands_per_kdelta;
    std::printf("%-8u %-18.1f %-10llu %-12llu %-16.2f %-10u\n", depth,
                r.commands_per_kdelta,
                static_cast<unsigned long long>(r.slots_used),
                static_cast<unsigned long long>(r.messages),
                r.ticks_per_command / 100.0, r.max_inflight_slots);
    g_recorder.add("E8g", config_json(4, 1, 1, 8, depth, 400), 0,
                   r.commands_per_kdelta, 0, r.messages, r.bytes,
                   r.payload_allocs, r.payload_alloc_bytes);
  }
  std::printf("(depth 1 is the pre-engine sequential control: %.1f "
              "cmds/1000delta; deeper windows overlap the 2-step fast "
              "paths of consecutive slots)\n", baseline);
}

void batch_sweep() {
  std::printf("\n=== E8d: SMR throughput by batch size (n = 4, f = t = 1, "
              "200 commands) ===\n");
  std::printf("%-8s %-18s %-10s %-12s %-16s\n", "batch", "cmds/1000delta",
              "slots", "msgs", "delta/command");
  for (std::uint32_t batch : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto cfg = consensus::QuorumConfig::create(4, 1, 1);
    auto r = run_throughput(cfg, batch, 200);
    std::printf("%-8u %-18.1f %-10llu %-12llu %-16.2f\n", batch,
                r.commands_per_kdelta,
                static_cast<unsigned long long>(r.slots_used),
                static_cast<unsigned long long>(r.messages),
                r.ticks_per_command / 100.0);
    g_recorder.add("E8d", config_json(4, 1, 1, batch, 1, 200), 0,
                   r.commands_per_kdelta, 0, r.messages, r.bytes,
                   r.payload_allocs, r.payload_alloc_bytes);
  }
}

/// Pre-start injection of `cmd` into every replica's pending queue, so
/// the first window's proposals already carry real batches (what an
/// SMR_REQUEST broadcast delivers, minus the wire hop).
void inject(Service& service, const Command& cmd) {
  Bytes payload = SmrNode::encode_request(cmd);
  for (ProcessId id = 0; id < service.quorum().n; ++id) {
    service.replica(id).on_message(0, payload);
  }
}

void wall_clock_pipeline_sweep() {
  using namespace std::chrono;
  constexpr std::uint64_t kCommands = 400;
  constexpr auto kLinkDelay = microseconds(200);
  std::printf("\n=== E9: wall-clock SMR throughput by pipeline depth "
              "(threaded runtime, n = 4, f = t = 1, batch = 8, %llu "
              "commands, %lldus link delay) ===\n",
              static_cast<unsigned long long>(kCommands),
              static_cast<long long>(kLinkDelay.count()));
  std::printf("%-8s %-14s %-14s %-10s %-12s %-10s\n", "depth", "wall ms",
              "cmds/sec", "slots", "msgs", "speedup");
  double baseline_ms = 0;
  for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    auto config = ServiceConfig{}
                      .with_cluster(4, 1, 1)
                      .with_batch(8)
                      .with_pipeline_depth(depth)
                      .with_link_delay(kLinkDelay);
    auto service = make_threaded_service(config);
    for (std::uint64_t i = 1; i <= kCommands; ++i) {
      inject(*service, Command::put("key" + std::to_string(i % 64),
                                    "value-" + std::to_string(i), 1, i));
    }
    std::uint64_t allocs_before = net::PayloadStats::allocs();
    std::uint64_t alloc_bytes_before = net::PayloadStats::alloc_bytes();
    auto begin = steady_clock::now();
    service->start();
    bool done = service->await_applied(kCommands, seconds(60));
    double ms = duration_cast<duration<double, std::milli>>(
                    steady_clock::now() - begin)
                    .count();
    service->stop();
    if (!done) {
      std::printf("%-8u (incomplete after 60s)\n", depth);
      continue;
    }
    if (depth == 1) baseline_ms = ms;
    std::printf("%-8u %-14.1f %-14.0f %-10llu %-12llu %-10.2f\n", depth, ms,
                static_cast<double>(kCommands) / (ms / 1000.0),
                static_cast<unsigned long long>(
                    service->replica(0).current_slot()),
                static_cast<unsigned long long>(
                    service->delivered_messages()),
                baseline_ms > 0 ? baseline_ms / ms : 0.0);
    g_recorder.add(
        "E9",
        config_json(4, 1, 1, 8, depth, kCommands, kLinkDelay.count()),
        static_cast<double>(kCommands) / (ms / 1000.0), 0, ms,
        service->delivered_messages(), 0,
        net::PayloadStats::allocs() - allocs_before,
        net::PayloadStats::alloc_bytes() - alloc_bytes_before);
  }
  std::printf("(same engine code as E8g, hosted on OS threads via "
              "engine::LoopHost; depth > 1 overlaps real message "
              "round-trips instead of simulated ones)\n");
}

void snapshot_recovery_sweep() {
  using namespace std::chrono;
  constexpr std::uint64_t kTotal = 240;  // commands over the whole schedule
  std::printf("\n=== E10: snapshot state transfer under crash/recover "
              "(threaded runtime, n = 4, f = t = 1, batch = 1, depth = 4, "
              "%llu commands, crash p3 early, restart it late) ===\n",
              static_cast<unsigned long long>(kTotal));
  std::printf("%-10s %-12s %-11s %-11s %-10s %-14s %-12s\n", "interval",
              "crash slot", "recovered", "rejoin ms", "installs",
              "retained max", "floor p0");

  for (std::uint64_t interval : {0ull, 8ull, 32ull}) {
    auto config = ServiceConfig{}
                      .with_cluster(4, 1, 1)
                      .with_batch(1)  // one slot per command: retention visible
                      .with_pipeline_depth(4)
                      .with_snapshots(interval)
                      .with_link_delay(microseconds(100));
    auto service = make_threaded_service(config);

    auto key = [](std::uint64_t i) { return "key" + std::to_string(i % 64); };
    auto value = [](std::uint64_t i) { return "value-" + std::to_string(i); };
    for (std::uint64_t i = 1; i <= kTotal / 2; ++i) {
      inject(*service, Command::put(key(i), value(i), 1, i));
    }
    service->start();
    service->await_applied(kTotal / 4, seconds(30));
    service->crash(3);
    Slot crash_slot = service->engine_stats(3).apply_watermark - 1;

    // Survivors keep deciding well past the crash point while p3 is down.
    for (std::uint64_t i = kTotal / 2 + 1; i <= kTotal; ++i) {
      service->session(0).put(key(i), value(i));
    }
    bool survivors_done = service->await_applied(kTotal, seconds(60));

    // Rejoin as a state-free fresh process. Without snapshots the pruned
    // prefix is unrecoverable, so bound the wait instead of hanging.
    auto begin = steady_clock::now();
    service->restart(3);
    bool recovered =
        survivors_done &&
        service->await_applied(kTotal, interval == 0 ? seconds(3)
                                                     : seconds(60));
    double rejoin_ms = duration_cast<duration<double, std::milli>>(
                           steady_clock::now() - begin)
                           .count();
    std::uint64_t installs = service->engine_stats(3).snapshots_installed;
    service->stop();

    std::size_t retained_max = 0;
    for (ProcessId id = 0; id < 3; ++id) {
      retained_max = std::max(retained_max,
                              service->replica(id).engine().catchup()
                                  .decided_count());
    }
    char rejoin[24];
    if (recovered) {
      std::snprintf(rejoin, sizeof(rejoin), "%.1f", rejoin_ms);
    } else {
      std::snprintf(rejoin, sizeof(rejoin), "(never)");
    }
    std::printf("%-10llu %-12llu %-11s %-11s %-10llu %-14zu %-12llu\n",
                static_cast<unsigned long long>(interval),
                static_cast<unsigned long long>(crash_slot),
                recovered ? "yes" : "no", rejoin,
                static_cast<unsigned long long>(installs), retained_max,
                static_cast<unsigned long long>(
                    service->replica(0).engine().catchup().prune_floor()));
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "\"interval\": %llu, \"recovered\": %s, "
                  "\"rejoin_ms\": %.1f, \"retained_max\": %zu",
                  static_cast<unsigned long long>(interval),
                  recovered ? "true" : "false", recovered ? rejoin_ms : -1.0,
                  retained_max);
    g_recorder.add("E10", extra, 0, 0, 0, 0, 0, 0, 0);
  }
  std::printf("(interval 0 = snapshots off: the crashed replica's frozen "
              "watermark pins retention at its crash slot and a fresh "
              "rejoiner can never recover the pruned prefix; with "
              "snapshots, retention stays near one interval and rejoin is "
              "a chunked state transfer)\n");
}

void closed_loop_client_sweep() {
  using namespace std::chrono;
  constexpr std::uint64_t kTotalOps = 400;
  constexpr auto kLinkDelay = microseconds(200);
  constexpr std::uint32_t kWindow = 8;
  std::printf("\n=== E11: closed-loop client sessions (threaded service, "
              "n = 4, f = t = 1, batch = 8, depth = 8, window = %u, %llu "
              "total ops, %lldus link delay) ===\n",
              kWindow, static_cast<unsigned long long>(kTotalOps),
              static_cast<long long>(kLinkDelay.count()));
  std::printf("%-10s %-14s %-14s %-12s %-12s\n", "sessions", "wall ms",
              "ops/sec", "completed", "failovers");
  for (std::uint32_t sessions : {1u, 2u, 4u}) {
    auto config = smr::ServiceConfig{}
                      .with_cluster(4, 1, 1)
                      .with_sessions(sessions)
                      .with_batch(8)
                      .with_pipeline_depth(8)
                      .with_window(kWindow)
                      .with_link_delay(kLinkDelay);
    auto service = make_threaded_service(config);
    service->start();
    const std::uint64_t per_session = kTotalOps / sessions;

    // Closed loop by construction: every session submits its full quota
    // up front, the session's bounded window keeps exactly kWindow
    // requests outstanding, and each completion dispatches the next from
    // the internal queue.
    auto begin = steady_clock::now();
    for (std::uint32_t s = 0; s < sessions; ++s) {
      for (std::uint64_t i = 1; i <= per_session; ++i) {
        service->session(s).put("key" + std::to_string(i % 64),
                                "value-" + std::to_string(i));
      }
    }
    auto all_completed = [&] {
      std::uint64_t done = 0;
      for (std::uint32_t s = 0; s < sessions; ++s) {
        done += service->session(s).completed();
      }
      return done >= per_session * sessions;
    };
    bool done = service->run_until(all_completed, 120'000ms);
    double ms = duration_cast<duration<double, std::milli>>(
                    steady_clock::now() - begin)
                    .count();
    std::uint64_t failovers = 0;
    for (std::uint32_t s = 0; s < sessions; ++s) {
      failovers += service->session(s).failovers();
    }
    service->stop();
    if (!done) {
      std::printf("%-10u (incomplete after 120s)\n", sessions);
      continue;
    }
    double ops_per_sec =
        static_cast<double>(per_session * sessions) / (ms / 1000.0);
    std::printf("%-10u %-14.1f %-14.0f %-12llu %-12llu\n", sessions, ms,
                ops_per_sec,
                static_cast<unsigned long long>(per_session * sessions),
                static_cast<unsigned long long>(failovers));
    char extra[224];
    std::snprintf(extra, sizeof(extra),
                  "\"n\": 4, \"f\": 1, \"t\": 1, \"batch\": 8, \"depth\": 8, "
                  "\"sessions\": %u, \"window\": %u, \"commands\": %llu, "
                  "\"link_delay_us\": %lld",
                  sessions, kWindow,
                  static_cast<unsigned long long>(per_session * sessions),
                  static_cast<long long>(kLinkDelay.count()));
    g_recorder.add("E11", extra, ops_per_sec, 0, ms, 0, 0, 0, 0);
  }
  std::printf("(every op pays the full client path: request to all n "
              "replicas -> decide -> execute -> n signed replies -> f + 1 "
              "quorum check; compare E9, which meters replica-side "
              "applies only)\n");
}

// --- E14: open-loop latency harness ------------------------------------------

/// Pipelining modes the latency-vs-rate curve is swept across. The static
/// depths bracket the trade-off (shallow = low queueing, deep = high
/// saturation throughput); adaptive must find the best of both at run
/// time.
struct OpenLoopMode {
  const char* name;
  std::uint32_t depth;  // static depth, or max_depth when adaptive
  bool adaptive;
};

struct OpenLoopResult {
  bool drained = false;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  double achieved_per_sec = 0;
  double wall_ms = 0;
  double mean_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::uint32_t depth_end = 0;
  std::uint64_t backoffs = 0;
};

/// The adaptive controller's decision-latency budget (wall-clock µs).
/// Roughly 3x a healthy uncontended decision on this LAN model: deep
/// enough not to flap on noise, tight enough that a saturated delivery
/// thread (whose decision tail stretches far past it) forces a backoff.
constexpr Duration kAdaptiveTargetUs = 5'000;

OpenLoopResult run_open_loop(const OpenLoopMode& mode, double rate,
                             double duration_s) {
  using namespace std::chrono;
  constexpr std::uint32_t kSessions = 2;

  auto config = smr::ServiceConfig{}
                    .with_cluster(4, 1, 1)
                    .with_sessions(kSessions)
                    .with_batch(8)
                    // Open loop: the window must never backpressure the
                    // arrival process — queueing belongs in the latency
                    // numbers, not in a client-side throttle.
                    .with_window(1u << 20)
                    .with_link_delay(microseconds(200))
                    // Generous per-try timeout so overload shows up as
                    // latency, not as failover storms; the deadline still
                    // bounds every op so the drain terminates.
                    .with_request_timeout(500'000)
                    .with_deadline(5'000'000);
  if (mode.adaptive) {
    config.with_adaptive(kAdaptiveTargetUs, 1, mode.depth);
    // The tail-latency amplifier at deep windows is the reorder buffer: a
    // slot stalled in a view change parks every younger decision (and the
    // client replies behind them). Back off when more than half the
    // window is parked, well before the default of 2 x max_depth.
    config.smr.adaptive.backlog_target = mode.depth / 2;
    // A 100ms window holds ~250 decisions at these rates, so window p99
    // is a real quantile: the single outlier a lone view-change stall
    // leaves behind cannot move it, while a depth-8 convoy still
    // breaches immediately through the backlog high-water. (The default
    // 4x-target window holds so few samples that p99 == max, and the
    // controller would back off on every stall at every depth.)
    config.smr.adaptive.window = 100'000;
    // One convoy already costs ~50+ op tails, so react to every breached
    // window (the ssthresh cap keeps reactions from compounding), and
    // re-probe known-bad depths sparingly: a failed probe re-buys the
    // convoy the controller just paid to learn.
    config.smr.adaptive.breach_windows = 1;
    config.smr.adaptive.probe_windows = 30;  // ~3s between probes
  } else {
    config.with_pipeline_depth(mode.depth);
  }
  auto service = make_threaded_service(config);
  service->start();

  std::mutex mutex;
  Histogram latencies;  // µs, completed ops only
  std::uint64_t completed = 0, timeouts = 0;

  std::mt19937_64 rng(0xE14);
  std::exponential_distribution<double> interarrival(rate / 1e6);  // per µs

  auto begin = steady_clock::now();
  auto stop_at = begin + duration_cast<steady_clock::duration>(
                             duration<double>(duration_s));
  auto next = begin;
  std::uint64_t submitted = 0;
  while (steady_clock::now() < stop_at) {
    // Poisson arrivals with catch-up: a late wake-up submits the overdue
    // arrival immediately instead of rescheduling it, so the offered rate
    // holds even when sleep granularity is coarse.
    next += microseconds(static_cast<std::int64_t>(interarrival(rng)));
    std::this_thread::sleep_until(next);
    auto t0 = steady_clock::now();
    auto future = service->session(submitted % kSessions)
                      .put("key" + std::to_string(submitted % 64),
                           "value-" + std::to_string(submitted));
    future.on_ready([&mutex, &latencies, &completed, &timeouts,
                     t0](const Reply& reply) {
      auto us = duration_cast<microseconds>(steady_clock::now() - t0).count();
      std::lock_guard<std::mutex> lock(mutex);
      if (reply.timed_out()) {
        ++timeouts;
      } else {
        ++completed;
        latencies.record(static_cast<std::uint64_t>(us));
      }
    });
    ++submitted;
  }
  double offered_ms = duration_cast<duration<double, std::milli>>(
                          steady_clock::now() - begin)
                          .count();

  OpenLoopResult result;
  result.drained = service->run_until(
      [&] {
        std::lock_guard<std::mutex> lock(mutex);
        return completed + timeouts >= submitted;
      },
      60'000ms);
  auto stats = service->engine_stats(0);
  service->stop();

  std::lock_guard<std::mutex> lock(mutex);
  result.submitted = submitted;
  result.completed = completed;
  result.timeouts = timeouts;
  result.wall_ms = offered_ms;
  // Achieved throughput over the offered window (completions during the
  // drain tail belong to arrivals inside it).
  result.achieved_per_sec =
      offered_ms > 0 ? static_cast<double>(completed) / (offered_ms / 1000.0)
                     : 0;
  result.mean_us = latencies.mean();
  result.p50_us = latencies.quantile(0.50);
  result.p99_us = latencies.quantile(0.99);
  result.p999_us = latencies.quantile(0.999);
  result.depth_end = stats.effective_depth;
  result.backoffs = stats.adaptive_backoffs;
  return result;
}

void open_loop_latency_sweep(const std::vector<double>& rates,
                             double duration_s) {
  std::printf("\n=== E14: open-loop latency vs offered rate (threaded "
              "service, n = 4, f = t = 1, batch = 8, 2 sessions, 200us "
              "link delay, Poisson arrivals, %.1fs per cell, adaptive "
              "target %lldus) ===\n",
              duration_s, static_cast<long long>(kAdaptiveTargetUs));
  const OpenLoopMode modes[] = {
      {"static-d1", 1, false},
      {"static-d8", 8, false},
      {"adaptive", 8, true},
  };
  std::printf("%-11s %-9s %-10s %-9s %-9s %-9s %-9s %-6s %-9s\n", "mode",
              "rate/s", "ops/sec", "p50 us", "p99 us", "p999 us", "timeout",
              "depth", "backoffs");
  for (const auto& mode : modes) {
    for (double rate : rates) {
      auto r = run_open_loop(mode, rate, duration_s);
      if (!r.drained) {
        std::printf("%-11s %-9.0f (drain incomplete: %llu of %llu)\n",
                    mode.name, rate,
                    static_cast<unsigned long long>(r.completed + r.timeouts),
                    static_cast<unsigned long long>(r.submitted));
        continue;
      }
      std::printf("%-11s %-9.0f %-10.0f %-9llu %-9llu %-9llu %-6llu %-6u "
                  "%-9llu\n",
                  mode.name, rate, r.achieved_per_sec,
                  static_cast<unsigned long long>(r.p50_us),
                  static_cast<unsigned long long>(r.p99_us),
                  static_cast<unsigned long long>(r.p999_us),
                  static_cast<unsigned long long>(r.timeouts), r.depth_end,
                  static_cast<unsigned long long>(r.backoffs));
      char extra[320];
      std::snprintf(
          extra, sizeof(extra),
          "\"n\": 4, \"f\": 1, \"t\": 1, \"batch\": 8, \"sessions\": 2, "
          "\"link_delay_us\": 200, \"mode\": \"%s\", \"depth\": %u, "
          "\"rate\": %.0f, \"duration_ms\": %.0f, \"submitted\": %llu, "
          "\"completed\": %llu, \"timeouts\": %llu, \"depth_end\": %u, "
          "\"backoffs\": %llu",
          mode.name, mode.depth, rate, duration_s * 1000.0,
          static_cast<unsigned long long>(r.submitted),
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.timeouts), r.depth_end,
          static_cast<unsigned long long>(r.backoffs));
      g_recorder.add_latency("E14", extra, r.achieved_per_sec, r.wall_ms,
                             r.mean_us, r.p50_us, r.p99_us, r.p999_us);
    }
  }
  std::printf("(open loop: arrivals do NOT wait for completions, so "
              "overload surfaces as tail latency rather than a quietly "
              "lower offered rate; 'adaptive' sizes its pipeline depth at "
              "run time from decision latency — docs/ADAPTIVE.md)\n");
}

void sharded_group_sweep() {
  using namespace std::chrono;
  constexpr std::uint64_t kCommands = 400;
  constexpr auto kLinkDelay = microseconds(200);
  constexpr std::uint32_t kDepth = 2;
  std::printf("\n=== E13: sharded multi-group SMR throughput (threaded "
              "runtime, n = 4, f = t = 1, batch = 8, depth = %u, %llu "
              "commands, %lldus link delay) ===\n",
              kDepth, static_cast<unsigned long long>(kCommands),
              static_cast<long long>(kLinkDelay.count()));
  std::printf("%-8s %-14s %-14s %-14s %-12s %-10s\n", "shards", "wall ms",
              "cmds/sec", "group spread", "msgs", "speedup");
  auto key_of = [](std::uint64_t i) {
    return "key" + std::to_string(i % 64);
  };
  double baseline_ms = 0;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    auto config = ServiceConfig{}
                      .with_cluster(4, 1, 1)
                      .with_batch(8)
                      .with_pipeline_depth(kDepth)
                      .with_shards(shards)
                      .with_link_delay(kLinkDelay);
    // Keys hash unevenly across groups: the spread column shows each
    // group's share (the shard map is the same pure function the replicas
    // route by).
    std::vector<std::uint64_t> shares(shards, 0);
    for (std::uint64_t i = 1; i <= kCommands; ++i) {
      ++shares[shard_of(key_of(i), shards)];
    }
    auto service = make_threaded_service(config);
    for (std::uint64_t i = 1; i <= kCommands; ++i) {
      inject(*service, Command::put(key_of(i), "value-" + std::to_string(i),
                                    1, i));
    }
    auto begin = steady_clock::now();
    service->start();
    bool done = service->await_applied(kCommands, seconds(60));
    double ms = duration_cast<duration<double, std::milli>>(
                    steady_clock::now() - begin)
                    .count();
    service->stop();
    if (!done) {
      std::printf("%-8u (incomplete after 60s)\n", shards);
      continue;
    }
    if (shards == 1) baseline_ms = ms;
    std::uint64_t min_share = kCommands, max_share = 0;
    for (std::uint64_t share : shares) {
      min_share = std::min(min_share, share);
      max_share = std::max(max_share, share);
    }
    char spread[24];
    std::snprintf(spread, sizeof(spread), "%llu..%llu",
                  static_cast<unsigned long long>(min_share),
                  static_cast<unsigned long long>(max_share));
    double cmds_per_sec = static_cast<double>(kCommands) / (ms / 1000.0);
    std::printf("%-8u %-14.1f %-14.0f %-14s %-12llu %-10.2f\n", shards, ms,
                cmds_per_sec, spread,
                static_cast<unsigned long long>(
                    service->delivered_messages()),
                baseline_ms > 0 ? baseline_ms / ms : 0.0);
    char extra[224];
    std::snprintf(extra, sizeof(extra),
                  "\"n\": 4, \"f\": 1, \"t\": 1, \"batch\": 8, \"depth\": %u, "
                  "\"shards\": %u, \"commands\": %llu, "
                  "\"link_delay_us\": %lld",
                  kDepth, shards, static_cast<unsigned long long>(kCommands),
                  static_cast<long long>(kLinkDelay.count()));
    g_recorder.add("E13", extra, cmds_per_sec, 0, ms,
                   service->delivered_messages(), 0, 0, 0);
  }
  std::printf("(one replica process hosts S independent consensus groups "
              "over a hash-partitioned keyspace; at fixed depth the "
              "in-flight slot budget scales with S, overlapping S times "
              "as many link round-trips — the aggregate-throughput lever "
              "when deepening one log's pipeline has run out)\n");
}

// --- E15: multi-process socket transport -------------------------------------

/// Seconds each E15 cell may take before the client gives up (the cell is
/// then reported incomplete instead of hanging the bench).
constexpr long kSocketCellTimeoutS = 60;

/// One E15 cell: a 4-replica cluster as 4 forked OS processes over
/// loopback TCP (net::SocketNetwork), driven by in-process client
/// sessions. Returns ops/sec, or 0 on an incomplete run.
struct SocketCell {
  std::uint32_t depth = 1;
  std::uint32_t batch = 1;
  std::uint32_t window = 1;     // per-session in-flight cap
  std::uint32_t sessions = 1;
  std::uint64_t ops = 400;
  Duration link_delay_us = 0;
  double wall_ms = 0;           // out
  std::uint64_t messages = 0;   // out: client-side frames in+out
};

volatile std::sig_atomic_t g_e15_child_stop = 0;

bool run_socket_cell(SocketCell& cell) {
  using namespace std::chrono;
  constexpr std::uint32_t kN = 4;
  const std::uint32_t clients = std::max(cell.sessions, 4u);

  // The parent pre-binds port-0 listeners and forks them to the replica
  // children (SocketPeer::adopted_listen_fd), so nobody races on ports
  // and the published peer table carries the real kernel-chosen ports.
  int listen_fds[kN];
  ServiceConfig config;
  config.with_cluster(kN, 1, 1)
      .with_sessions(clients)
      .with_pipeline_depth(cell.depth)
      .with_batch(cell.batch)
      .with_window(cell.window)
      .with_link_delay(microseconds(cell.link_delay_us));
  std::vector<net::SocketPeer> peers(kN + clients);
  for (std::uint32_t id = 0; id < kN; ++id) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(fd, 128) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      return false;
    }
    listen_fds[id] = fd;
    peers[id].host = "127.0.0.1";
    peers[id].port = ntohs(addr.sin_port);
  }

  pid_t children[kN];
  for (std::uint32_t id = 0; id < kN; ++id) {
    pid_t pid = ::fork();
    if (pid == 0) {
      // Replica child: adopt our own listener, drop the siblings'.
      g_e15_child_stop = 0;
      std::signal(SIGTERM, [](int) { g_e15_child_stop = 1; });
      std::signal(SIGPIPE, SIG_IGN);
      for (std::uint32_t other = 0; other < kN; ++other) {
        if (other != id) ::close(listen_fds[other]);
      }
      SocketDeployment deployment{peers, {id}};
      deployment.peers[id].adopted_listen_fd = listen_fds[id];
      {
        auto server = make_socket_service(config, std::move(deployment));
        server->start();
        while (!g_e15_child_stop) {
          std::this_thread::sleep_for(milliseconds(10));
        }
        server->stop();
      }
      ::_exit(0);  // skip atexit/recorder in the child
    }
    children[id] = pid;
  }
  for (std::uint32_t id = 0; id < kN; ++id) ::close(listen_fds[id]);

  bool ok = false;
  {
    SocketDeployment deployment{peers, {}};
    for (std::uint32_t k = 0; k < cell.sessions; ++k) {
      deployment.hosted.push_back(kN + k);
    }
    auto client = make_socket_service(config, std::move(deployment));
    client->start();
    const auto completed = [&client] {
      std::uint64_t sum = 0;
      for (std::uint32_t k = 0; k < client->num_sessions(); ++k) {
        sum += client->session(k).completed();
      }
      return sum;
    };

    const auto t0 = steady_clock::now();
    for (std::uint64_t i = 0; i < cell.ops; ++i) {
      auto& session = client->session(static_cast<std::uint32_t>(
          i % cell.sessions));
      const std::string key = "key-" + std::to_string(i % 64);
      switch (i % 3) {
        case 0: session.put(key, "value-" + std::to_string(i)); break;
        case 1: session.get(key); break;
        default: session.put(key, "value-" + std::to_string(i)); break;
      }
    }
    const auto give_up = t0 + seconds(kSocketCellTimeoutS);
    while (completed() < cell.ops && steady_clock::now() < give_up) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    cell.wall_ms = duration_cast<duration<double, std::milli>>(
                       steady_clock::now() - t0)
                       .count();
    ok = completed() == cell.ops;
    const auto stats = client->socket_network()->stats();
    cell.messages = stats.frames_in + stats.frames_out;
    client->stop();
  }

  for (pid_t pid : children) ::kill(pid, SIGTERM);
  for (pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return ok;
}

void socket_transport_sweep() {
  constexpr Duration kLinkDelayUs = 1000;
  std::printf("\n=== E15: multi-process SMR over loopback TCP "
              "(net::SocketNetwork, n = 4 replica processes, f = t = 1, "
              "%lldus emulated link delay) ===\n",
              static_cast<long long>(kLinkDelayUs));

  // Depth sweep (E9's shape, real sockets): batch 1 and window = depth so
  // the pipeline is the ONLY lever — depth d overlaps d slots' worth of
  // link round-trips, so throughput must scale near-linearly until the
  // single-core CPU ceiling. perf_check.py gates depth8/depth1 >= 2x.
  std::printf("%-8s %-10s %-14s %-14s %-10s\n", "depth", "window",
              "wall ms", "ops/sec", "speedup");
  double depth1_rate = 0;
  for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
    SocketCell cell;
    cell.depth = depth;
    cell.batch = 1;
    cell.window = depth;
    cell.sessions = 1;
    cell.ops = 400;
    cell.link_delay_us = kLinkDelayUs;
    if (!run_socket_cell(cell)) {
      std::printf("%-8u (incomplete after %lds)\n", depth,
                  kSocketCellTimeoutS);
      continue;
    }
    const double rate =
        static_cast<double>(cell.ops) / (cell.wall_ms / 1000.0);
    if (depth == 1) depth1_rate = rate;
    std::printf("%-8u %-10u %-14.1f %-14.0f %-10.2f\n", depth, cell.window,
                cell.wall_ms, rate, depth1_rate > 0 ? rate / depth1_rate : 0);
    char extra[224];
    std::snprintf(extra, sizeof(extra),
                  "\"n\": 4, \"f\": 1, \"t\": 1, \"batch\": 1, "
                  "\"depth\": %u, \"window\": %u, \"sessions\": 1, "
                  "\"commands\": %llu, \"link_delay_us\": %lld",
                  depth, cell.window,
                  static_cast<unsigned long long>(cell.ops),
                  static_cast<long long>(kLinkDelayUs));
    g_recorder.add("E15", extra, rate, 0, cell.wall_ms, cell.messages, 0, 0,
                   0);
  }

  // Session sweep (E11's shape): k closed-loop sessions, each with its
  // own endpoint id and in-flight window, against a depth-8 batch-8
  // cluster — client-side concurrency as the aggregate-throughput lever.
  std::printf("%-10s %-14s %-14s %-10s\n", "sessions", "wall ms", "ops/sec",
              "speedup");
  double s1_rate = 0;
  for (std::uint32_t sessions : {1u, 2u, 4u, 8u}) {
    SocketCell cell;
    cell.depth = 8;
    cell.batch = 8;
    cell.window = 8;
    cell.sessions = sessions;
    cell.ops = 800;
    cell.link_delay_us = kLinkDelayUs;
    if (!run_socket_cell(cell)) {
      std::printf("%-10u (incomplete after %lds)\n", sessions,
                  kSocketCellTimeoutS);
      continue;
    }
    const double rate =
        static_cast<double>(cell.ops) / (cell.wall_ms / 1000.0);
    if (sessions == 1) s1_rate = rate;
    std::printf("%-10u %-14.1f %-14.0f %-10.2f\n", sessions, cell.wall_ms,
                rate, s1_rate > 0 ? rate / s1_rate : 0);
    char extra[224];
    std::snprintf(extra, sizeof(extra),
                  "\"n\": 4, \"f\": 1, \"t\": 1, \"batch\": 8, "
                  "\"depth\": 8, \"window\": 8, \"sessions\": %u, "
                  "\"commands\": %llu, \"link_delay_us\": %lld",
                  sessions, static_cast<unsigned long long>(cell.ops),
                  static_cast<long long>(kLinkDelayUs));
    g_recorder.add("E15", extra, rate, 0, cell.wall_ms, cell.messages, 0, 0,
                   0);
  }
  std::printf("(every replica is a separate OS process; all consensus and "
              "client traffic crosses real TCP sockets with length-prefixed "
              "frames, writev coalescing and a %lldus emulated one-way link "
              "delay — loopback RTTs alone are too far below real network "
              "RTTs for pipelining effects to rise above scheduler noise)\n",
              static_cast<long long>(kLinkDelayUs));
}

void cluster_size_sweep() {
  std::printf("\n=== E8e: SMR throughput by cluster config (batch = 8, "
              "100 commands) ===\n");
  std::printf("%-14s %-6s %-18s %-12s\n", "(f, t)", "n", "cmds/1000delta",
              "msgs");
  struct P {
    std::uint32_t f, t;
  };
  for (P p : {P{1, 1}, P{2, 1}, P{2, 2}, P{3, 1}}) {
    std::uint32_t n = consensus::QuorumConfig::min_processes(p.f, p.t);
    auto cfg = consensus::QuorumConfig::create(n, p.f, p.t);
    auto r = run_throughput(cfg, 8, 100);
    char label[16];
    std::snprintf(label, sizeof(label), "(%u, %u)", p.f, p.t);
    std::printf("%-14s %-6u %-18.1f %-12llu\n", label, n,
                r.commands_per_kdelta,
                static_cast<unsigned long long>(r.messages));
  }
}


void client_latency() {
  std::printf("\n=== E8f: client-perceived latency (f+1 replica reports), "
              "n = 4, f = t = 1 ===\n");
  std::printf("%-8s %-16s %-16s %-16s\n", "batch", "min (delta)",
              "median (delta)", "max (delta)");
  constexpr std::size_t kPuts = 40;
  for (std::uint32_t batch : {1u, 8u}) {
    ServiceConfig config;
    config.with_cluster(4, 1, 1).with_batch(batch).with_window(kPuts);
    config.sim_net.delta = 100;
    config.sim_net.min_delay = 100;
    auto service = make_sim_service(config);
    sim::Scheduler& sched = service->sim_network()->scheduler();
    service->start();

    std::vector<Duration> latencies;
    for (std::size_t i = 0; i < kPuts; ++i) {
      service->session(0)
          .put("k" + std::to_string(i), "v")
          .on_ready([&latencies, &sched, at = sched.now()](const Reply&) {
            latencies.push_back(sched.now() - at);
          });
    }
    const bool done = service->run_until(
        [&] { return latencies.size() == kPuts; },
        std::chrono::milliseconds(1000));
    if (!done) {
      std::printf("%-8u (incomplete)\n", batch);
      continue;
    }
    std::sort(latencies.begin(), latencies.end());
    std::printf("%-8u %-16.1f %-16.1f %-16.1f\n", batch,
                static_cast<double>(latencies.front()) / 100.0,
                static_cast<double>(latencies[kPuts / 2]) / 100.0,
                static_cast<double>(latencies.back()) / 100.0);
  }
  std::printf("(a command waits for its slot: small batches mean long "
              "queues — the latency/throughput trade-off)\n");
}

}  // namespace
}  // namespace fastbft::smr

int main(int argc, char** argv) {
  // --only E9[,E8g,...] runs a subset (CI's perf smoke runs just E9);
  // --json PATH writes the machine-readable records (the default is
  // deliberately NOT the committed BENCH_smr.json, so a routine local run
  // cannot clobber the tracked baseline); --label NAME tags the run.
  // E14 controls: --rate R1[,R2,...] overrides the offered-rate sweep
  // (ops/sec), --duration SECONDS the per-cell measurement window, and
  // --open-loop is shorthand for --only E14.
  std::string only;
  std::string json_path = "bench_smr_out.json";
  std::string label = "local";
  std::vector<double> rates = {1000, 2500, 6000};
  double duration_s = 4.0;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (std::strcmp(argv[i], "--only") == 0) {
      only = need_value("--only");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--label") == 0) {
      label = need_value("--label");
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      rates.clear();
      std::string list = need_value("--rate");
      for (std::size_t pos = 0; pos < list.size();) {
        std::size_t comma = list.find(',', pos);
        rates.push_back(std::stod(list.substr(pos, comma - pos)));
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      duration_s = std::stod(need_value("--duration"));
    } else if (std::strcmp(argv[i], "--open-loop") == 0) {
      if (only.empty()) only = "E14";
    } else {
      std::fprintf(stderr,
                   "usage: %s [--only E8d,E8g,E9,E10,E11,E13,E14,E15,E8e,E8f] "
                   "[--json PATH] [--label NAME] [--rate R1,R2,...] "
                   "[--duration SECONDS] [--open-loop]\n",
                   argv[0]);
      return 2;
    }
  }
  auto selected = [&](const char* experiment) {
    return only.empty() || only.find(experiment) != std::string::npos;
  };

  std::printf("bench_smr_throughput: replicated KV store experiments (%s)\n",
              only.empty() ? "all" : only.c_str());
  if (selected("E8d")) fastbft::smr::batch_sweep();
  if (selected("E8g")) fastbft::smr::pipeline_sweep();
  if (selected("E9")) fastbft::smr::wall_clock_pipeline_sweep();
  if (selected("E10")) fastbft::smr::snapshot_recovery_sweep();
  if (selected("E11")) fastbft::smr::closed_loop_client_sweep();
  if (selected("E13")) fastbft::smr::sharded_group_sweep();
  if (selected("E15")) fastbft::smr::socket_transport_sweep();
  if (selected("E14")) {
    fastbft::smr::open_loop_latency_sweep(rates, duration_s);
  }
  if (selected("E8e")) fastbft::smr::cluster_size_sweep();
  if (selected("E8f")) fastbft::smr::client_latency();

  if (!fastbft::smr::g_recorder.write(json_path, label)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\n[bench json written to %s]\n", json_path.c_str());
  return 0;
}
