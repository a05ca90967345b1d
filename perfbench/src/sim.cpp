// The benchmark's workloads: open-loop runs on the deterministic
// simulator, each a series of leader-failover episodes. Latencies are in
// virtual time (1 tick = 1 µs) and exact for a given seed; the wall-clock
// and CPU figures are the cost of simulating the run on one thread.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

using fastbft::smr::ClientSession;
using fastbft::smr::Reply;
using fastbft::smr::Service;

namespace {

/// Set-ups timed before each episode, each with its own derived seed, so
/// the median does not follow one seed's network draws.
constexpr std::uint32_t kSetupsPerEpisode = 3;
constexpr fastbft::Duration kSampleEvery = 1000;  // ticks
constexpr std::uint64_t kSnapshotInterval = 64;  // slots
constexpr TimePoint kIdleSpan = 100'000;  // ticks of unloaded cluster

struct OpRecord {
  TimePoint due = 0;
  TimePoint done = 0;
  std::uint32_t session = 0;
  Op op;
  bool completed = false;
  bool ok = false;
};

fastbft::smr::ServiceConfig sim_config(const SimShape& shape,
                                       std::uint64_t seed) {
  fastbft::smr::ServiceConfig config;
  config.with_cluster(4, 1, 1)
      .with_sessions(shape.sessions)
      .with_pipeline_depth(8)
      .with_batch(8)
      .with_shards(1)
      .with_window(shape.window)
      .with_snapshots(kSnapshotInterval);
  config.smr.eager_windows = shape.eager_windows;
  config.key_seed = kKeySeed;
  config.sim_net.delta = 200;
  config.sim_net.min_delay = 100;
  config.sim_net.seed = mix_seed(seed, 1000);
  return config;
}

double ticks_ms(TimePoint ticks) { return static_cast<double>(ticks) / 1000.0; }

}  // namespace

std::string SimOutcome::determinism_digest() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "attempted=%" PRIu64 " completed=%" PRIu64 " failed=%" PRIu64
                " vlat_p50=%.17g vlat_p99=%.17g outage=%.17g "
                "rejoin_p50=%.17g net_messages=%" PRIu64 " net_bytes=%" PRIu64,
                attempted, completed, failed, vlat_p50_ms, vlat_p99_ms,
                outage_ms, rejoin_p50_ms, net_messages, net_bytes);
  return buf;
}

namespace {

/// Accumulates one run's episodes.
struct Pool {
  std::vector<double> from_due;  // ms, every completed op
  std::vector<double> late;      // ms, ops due in an episode's last 20 %
  std::vector<double> outages;   // ms, one per episode
  std::vector<double> submit_ns;
  // CPU per op of each episode, over its measured window (load and drain).
  std::vector<double> cpu_us_per_op;
  double wall_s = 0;  // the measured windows, summed
  double cpu_s = 0;
};

/// One failover episode on a fresh cluster: Poisson arrivals over
/// `length` ticks, replica 0 down over [40 %, 60 %), drain, and the
/// correctness gate (sentinels in the last episode only).
void run_episode(const SimShape& shape, std::uint64_t seed, std::uint32_t r,
                 bool last, Recording* recording, SpanLog* spans,
                 SimOutcome& out, Pool& pool) {
  const std::uint64_t eseed = mix_seed(seed, 500 + r);
  auto service = make_sim_service(sim_config(shape, eseed));
  if (recording != nullptr) {
    service->sim_network()->set_observer(
        [recording, r](const fastbft::net::Envelope& env, TimePoint sent,
                       TimePoint) { recording->observe(env, sent, r); });
  }
  service->start();
  fastbft::net::SimNetwork& net = *service->sim_network();
  fastbft::sim::Scheduler& sched = net.scheduler();
  const TimePoint base = sched.now();
  const auto length =
      static_cast<TimePoint>(shape.virtual_s * 1e6 / shape.episodes);
  const TimePoint end = base + length;
  const TimePoint crash_at = base + length * 4 / 10;
  const TimePoint restart_at = base + length * 6 / 10;
  const TimePoint late_from = base + length * 8 / 10;
  if (recording != nullptr && r == 0) {
    // Replay windows: steady state before the crash, and the view change.
    recording->windows = {{base + length / 5, base + length / 5 + 20'000},
                          {crash_at, crash_at + 20'000}};
  } else if (recording != nullptr) {
    recording->windows.clear();
  }

  // Open-loop arrivals: a Poisson process per session.
  std::vector<OpRecord> ops;
  const double mean_gap = 1e6 * shape.sessions / shape.rate_per_s;
  for (std::uint32_t s = 0; s < shape.sessions; ++s) {
    OpStream stream(eseed, s, shape.get_share);
    Rng arrivals(mix_seed(eseed, 100 + s));
    double t = static_cast<double>(base);
    while (true) {
      t += arrivals.exponential(mean_gap);
      if (t >= static_cast<double>(end)) break;
      OpRecord rec;
      rec.due = static_cast<TimePoint>(t);
      rec.session = s;
      rec.op = stream.next();
      ops.push_back(rec);
    }
  }
  std::sort(ops.begin(), ops.end(), [](const OpRecord& a, const OpRecord& b) {
    return a.due != b.due ? a.due < b.due : a.session < b.session;
  });
  out.attempted += ops.size();
  std::uint64_t commands = ops.size();

  std::uint64_t completed = 0;
  std::uint64_t bad_replies = 0;
  const std::uint64_t span_base = out.attempted - ops.size();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    sched.schedule_at(ops[i].due, [&, i] {
      OpRecord& rec = ops[i];
      ClientSession& session = service->session(rec.session);
      const std::int64_t call0 = wall_now_ns();
      auto future = rec.op.is_get
                        ? session.get(key_name(rec.op.key))
                        : session.put(key_name(rec.op.key),
                                      make_value(rec.op.key, rec.op.tag,
                                                 shape.value_bytes));
      const std::int64_t call1 = wall_now_ns();
      std::uint64_t root = 0;
      if (spans != nullptr) {
        pool.submit_ns.push_back(static_cast<double>(call1 - call0));
        const std::uint64_t op_id = span_base + i + 1;
        root = spans->add(0, op_id, "op", "virtual", rec.due, rec.due);
        spans->add(root, op_id, "smr.submit", "wall", call0, call1);
      }
      future.on_ready([&, i, root](const Reply& reply) {
        OpRecord& done = ops[i];
        done.done = sched.now();
        done.completed = true;
        ++completed;
        const bool kind_ok =
            reply.op == (done.op.is_get ? fastbft::smr::OpKind::Get
                                        : fastbft::smr::OpKind::Put);
        const bool value_ok =
            !done.op.is_get || !reply.result.found ||
            check_value(done.op.key, reply.result.value, shape.value_bytes);
        done.ok = reply.ok() && kind_ok && value_ok;
        if (!done.ok && !reply.timed_out()) ++bad_replies;
        if (spans != nullptr) spans->finish(root, done.done);
      });
    });
  }

  if (recording != nullptr) {
    // Gauges, sampled on a fixed virtual period.
    for (TimePoint t = base + kSampleEvery; t < end; t += kSampleEvery) {
      sched.schedule_at(t, [&] {
        std::uint64_t lo = UINT64_MAX, hi = 0;
        for (ProcessId id = 0; id < 4; ++id) {
          if (service->is_faulty(id)) continue;
          lo = std::min(lo, service->applied_commands(id));
          hi = std::max(hi, service->applied_commands(id));
        }
        if (hi >= lo) out.apply_lag_max = std::max(out.apply_lag_max, hi - lo);
        for (std::uint32_t s = 0; s < shape.sessions; ++s) {
          out.queued_max = std::max(out.queued_max, service->session(s).queued());
          out.in_flight_max =
              std::max(out.in_flight_max, service->session(s).in_flight());
        }
      });
    }
  }

  const double wall0 = wall_now_s();
  const double cpu0 = process_cpu_s();
  const std::uint64_t messages0 = net.stats().total_messages();
  const std::uint64_t bytes0 = net.stats().total_bytes();
  // Scheduled events, so the fault lands at the same virtual instant
  // whatever else (such as the gauge sampler) sits in the event queue.
  sched.schedule_at(crash_at, [&] { service->crash(0); });
  sched.schedule_at(restart_at, [&] { service->restart(0); });
  sched.schedule_at(end, [] {});  // an on-demand cluster may fall silent
  service->run_until([&] { return sched.now() >= end; },
                     std::chrono::milliseconds(length / 1000 + 1000));
  const bool drained = service->run_until(
      [&] { return completed == ops.size(); }, std::chrono::milliseconds(30'000));
  const double wall_s = wall_now_s() - wall0;
  const double cpu_s = process_cpu_s() - cpu0;
  const double done = static_cast<double>(std::max<std::uint64_t>(1, completed));
  pool.cpu_us_per_op.push_back(cpu_s * 1e6 / done);
  pool.wall_s += wall_s;
  pool.cpu_s += cpu_s;
  out.net_messages += net.stats().total_messages() - messages0;
  out.net_bytes += net.stats().total_bytes() - bytes0;
  out.completed += completed;
  if (!drained) {
    out.problems.push_back("episode " + std::to_string(r) + ": " +
                           std::to_string(ops.size() - completed) +
                           " operations never completed");
  }
  if (bad_replies > 0) {
    out.problems.push_back(std::to_string(bad_replies) +
                           " replies failed the result check");
  }

  // Virtual-time results of this episode.
  std::vector<double> completions;
  for (const OpRecord& rec : ops) {
    if (!rec.completed || !rec.ok) {
      ++out.failed;
      continue;
    }
    const double lat = ticks_ms(rec.done - rec.due);
    pool.from_due.push_back(lat);
    if (rec.due >= late_from) pool.late.push_back(lat);
    if (rec.done >= crash_at && rec.done <= end) {
      completions.push_back(static_cast<double>(rec.done));
    }
  }
  std::sort(completions.begin(), completions.end());
  double prev = static_cast<double>(crash_at);
  double outage = 0;
  for (double t : completions) {
    outage = std::max(outage, (t - prev) / 1000.0);
    prev = t;
  }
  pool.outages.push_back(std::max(outage, (static_cast<double>(end) - prev) / 1000.0));

  for (std::uint32_t s = 0; s < shape.sessions; ++s) {
    const ClientSession& session = service->session(s);
    out.failovers += session.failovers();
    out.rejected_replies += session.rejected_replies();
    out.deadline_timeouts += session.deadline_timeouts();
  }
  for (ProcessId id = 0; id < 4; ++id) {
    const auto e = service->engine_stats(id);
    out.engine.effective_depth = std::max(out.engine.effective_depth, e.effective_depth);
    out.engine.effective_batch = std::max(out.engine.effective_batch, e.effective_batch);
    out.engine.reorder_high_water =
        std::max(out.engine.reorder_high_water, e.reorder_high_water);
    out.engine.parked_high_water =
        std::max(out.engine.parked_high_water, e.parked_high_water);
    out.engine.clamp_stalls += e.clamp_stalls;
  }

  // Correctness gate: sentinels written and read back by session 0 (last
  // episode), then every correct replica applies every command and the
  // stores agree.
  if (last) {
    ClientSession& probe = service->session(0);
    const auto plan = sentinel_plan(seed);
    std::vector<fastbft::smr::Future<Reply>> writes, reads;
    for (const auto& [key, value] : plan) writes.push_back(probe.put(key, value));
    const bool wrote = service->run_until(
        [&] {
          return std::all_of(writes.begin(), writes.end(),
                             [](const auto& f) { return f.ready(); });
        },
        std::chrono::milliseconds(20'000));
    for (const auto& [key, value] : plan) reads.push_back(probe.get(key));
    const bool read = service->run_until(
        [&] {
          return std::all_of(reads.begin(), reads.end(),
                             [](const auto& f) { return f.ready(); });
        },
        std::chrono::milliseconds(20'000));
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!wrote || !read || reads[i].value().result.value != plan[i].second) {
        out.problems.push_back("sentinel " + plan[i].first + " did not read back");
      }
    }
    commands += 2 * plan.size();
  }
  if (!service->await_applied(commands, std::chrono::milliseconds(30'000))) {
    out.problems.push_back("episode " + std::to_string(r) +
                           ": correct replicas did not apply every command");
  }
  service->stop();
  if (!service->stores_agree()) {
    out.problems.push_back("episode " + std::to_string(r) +
                           ": replica stores disagree after stop()");
  }
}

}  // namespace

SimOutcome run_sim(const SimShape& shape, std::uint64_t seed,
                   Recording* recording, SpanLog* spans) {
  SimOutcome out;

  // Set-up: construction until every session holds its first verified
  // reply. It is timed several times before each episode, so the median
  // samples the whole run rather than its first moments.
  std::vector<double> setups, starts, firsts;
  auto time_setups = [&](std::uint32_t r) {
    for (std::uint32_t k = 0; k < kSetupsPerEpisode; ++k) {
      const std::uint64_t sseed = mix_seed(seed, 2000 + r * kSetupsPerEpisode + k);
      const double t0 = wall_now_s();
      auto service = make_sim_service(sim_config(shape, sseed));
      const double t1 = wall_now_s();
      service->start();
      const double t2 = wall_now_s();
      std::vector<fastbft::smr::Future<Reply>> first;
      for (std::uint32_t s = 0; s < shape.sessions; ++s) {
        first.push_back(service->session(s).put(
            key_name(s), make_value(s, 0xE00000000ULL + s, shape.value_bytes)));
      }
      const bool ready = service->run_until(
          [&] {
            return std::all_of(first.begin(), first.end(),
                               [](const auto& f) { return f.ready(); });
          },
          std::chrono::milliseconds(10'000));
      const double t3 = wall_now_s();
      if (!ready) out.problems.push_back("set-up: first replies never arrived");
      setups.push_back(t3 - t0);
      starts.push_back((t2 - t1) * 1000.0);
      firsts.push_back((t3 - t2) * 1000.0);
    }
  };

  Pool pool;
  const double wall0 = wall_now_s();
  const double cpu0 = process_cpu_s();
  for (std::uint32_t r = 0; r < shape.episodes; ++r) {
    time_setups(r);
    const std::uint64_t allocs0 = fastbft::PayloadStats::allocs();
    const std::uint64_t alloc_bytes0 = fastbft::PayloadStats::alloc_bytes();
    run_episode(shape, seed, r, r + 1 == shape.episodes, recording, spans, out,
                pool);
    out.payload_allocs += fastbft::PayloadStats::allocs() - allocs0;
    out.payload_bytes += fastbft::PayloadStats::alloc_bytes() - alloc_bytes0;
  }
  out.setup_s = median(setups);
  out.start_ms = median(starts);
  out.first_reply_ms = median(firsts);
  out.setup_quartiles_ms = {quantile(setups, 0.25) * 1000.0,
                            quantile(setups, 0.75) * 1000.0};
  out.wall_s = wall_now_s() - wall0;
  out.cpu_s = process_cpu_s() - cpu0;

  out.vlat_p50_ms = quantile(pool.from_due, 0.50);
  out.vlat_p99_ms = quantile(pool.from_due, 0.99);
  out.p99_beyond = static_cast<std::uint64_t>(
      std::count_if(pool.from_due.begin(), pool.from_due.end(),
                    [&](double v) { return v > out.vlat_p99_ms; }));
  out.rejoin_p50_ms = quantile(pool.late, 0.50);
  double outage_sum = 0;
  for (double o : pool.outages) outage_sum += o;
  out.outage_ms = pool.outages.empty() ? 0 : outage_sum / pool.outages.size();
  out.outage_max_ms =
      pool.outages.empty() ? 0 : *std::max_element(pool.outages.begin(), pool.outages.end());
  out.submit_us = median(pool.submit_ns) / 1000.0;
  // Every episode runs the same phases (load, crash, rejoin, drain), so
  // the median episode is the run's figure; a host stall that covers a
  // few episodes does not move it.
  out.episode_cpu_us_per_op = pool.cpu_us_per_op;
  out.cpu_us_per_op = median(pool.cpu_us_per_op);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, out.completed));
  out.pooled_ops_s = ops / pool.wall_s;
  out.pooled_cpu_us_per_op = pool.cpu_s * 1e6 / ops;
  if (recording != nullptr) recording->ops = out.completed;
  return out;
}

// --- Workloads -------------------------------------------------------------------

namespace {

/// sim-failover: the paper's cluster under light mixed load. Eager no-op
/// windows (the threaded and simulated runtimes' default) keep every slot
/// of the window busy, so the cost per op is mostly no-op churn.
SimShape failover_shape(int seconds) {
  SimShape shape;  // defaults: 2 puts per get, 16 B, eager, 2000 op/s
  // A quarter virtual second per second of --seconds, one episode each.
  shape.virtual_s = seconds / 4.0;
  shape.episodes = static_cast<std::uint32_t>(seconds);
  return shape;
}

/// sim-bulk-put: 1 KiB puts from one session with on-demand windows (the
/// socket runtime's setting), so slots open only for requests and the
/// cost per op is hashing, encoding and copying the values.
SimShape bulk_put_shape(int seconds) {
  SimShape shape;
  shape.get_share = 0;
  shape.value_bytes = 1024;
  shape.eager_windows = false;
  shape.sessions = 1;
  shape.window = 64;
  shape.rate_per_s = 6000;
  shape.virtual_s = seconds / 4.0;
  shape.episodes = static_cast<std::uint32_t>(seconds);
  return shape;
}

struct Workload {
  std::string name;
  SimShape (*shape)(int seconds);
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sim-failover", failover_shape},
      {"sim-bulk-put", bulk_put_shape},
  };
  return all;
}

/// Messages per virtual second that a started cluster of `shape` sends
/// with no load at all: the eager no-op churn. Exact for a seed.
double idle_msgs_per_s(const SimShape& shape, std::uint64_t seed,
                       Report& report) {
  auto service = make_sim_service(sim_config(shape, seed));
  service->start();
  auto first = service->session(0).put(
      key_name(0), make_value(0, 0xE00000000ULL, shape.value_bytes));
  if (!service->run_until([&] { return first.ready(); },
                          std::chrono::milliseconds(10'000))) {
    report.problem("idle cluster: first reply never arrived");
  }
  fastbft::net::SimNetwork& net = *service->sim_network();
  fastbft::sim::Scheduler& sched = net.scheduler();
  const TimePoint end = sched.now() + kIdleSpan;
  const std::uint64_t messages0 = net.stats().total_messages();
  sched.schedule_at(end, [] {});
  service->run_until([&] { return sched.now() >= end; },
                     std::chrono::milliseconds(kIdleSpan / 1000 + 1000));
  const double messages =
      static_cast<double>(net.stats().total_messages() - messages0);
  service->stop();
  return messages * 1e6 / static_cast<double>(kIdleSpan);
}

void add_layer_metrics(Report& report, const SimOutcome& sim, double ops) {
  report.add_layer("runtime.start_ms", sim.start_ms, "ms");
  report.add_layer("runtime.first_reply_ms", sim.first_reply_ms, "ms");
  report.add_layer("smr.submit_us", sim.submit_us, "us");
  report.add_layer("smr.failovers_per_kop", sim.failovers * 1000.0 / ops, "1/kop");
  report.add_layer("smr.rejected_replies_per_kop",
                   sim.rejected_replies * 1000.0 / ops, "1/kop");
  report.add_layer("smr.deadline_timeouts",
                   static_cast<double>(sim.deadline_timeouts), "count");
  report.add_layer("smr.queued_max", static_cast<double>(sim.queued_max), "count");
  report.add_layer("smr.in_flight_max", static_cast<double>(sim.in_flight_max),
                   "count");
  report.add_layer("smr.apply_lag_max", static_cast<double>(sim.apply_lag_max),
                   "count");
  report.add_layer("engine.effective_depth", sim.engine.effective_depth, "count");
  report.add_layer("engine.effective_batch", sim.engine.effective_batch, "count");
  report.add_layer("engine.reorder_high_water",
                   static_cast<double>(sim.engine.reorder_high_water), "count");
  report.add_layer("engine.parked_high_water",
                   static_cast<double>(sim.engine.parked_high_water), "count");
  report.add_layer("engine.clamp_stalls",
                   static_cast<double>(sim.engine.clamp_stalls), "count");
  report.add_layer("net.payload_allocs_per_op", sim.payload_allocs / ops, "count");
  report.add_layer("net.payload_bytes_per_op", sim.payload_bytes / ops, "B");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Workload& w : workloads()) v.push_back(w.name);
    return v;
  }();
  return names;
}

Report run_workload(const Args& args) {
  Report report;
  const auto it = std::find_if(workloads().begin(), workloads().end(),
                               [&](const Workload& w) { return w.name == args.workload; });
  if (it == workloads().end()) {
    report.problem("unknown workload " + args.workload);
    return report;
  }
  // A traced run simulates the seed twice, so each pass gets half the
  // episodes and the run keeps about the length of an untraced one.
  const SimShape shape =
      it->shape(args.trace ? std::max(1, args.seconds / 2) : args.seconds);

  if (!args.trace) {
    const SimOutcome sim = run_sim(shape, args.seed, nullptr, nullptr);
    report.problems = sim.problems;
    report.attempted = sim.attempted;
    report.failed = sim.failed;
    report.add_e2e("setup_s", sim.setup_s, "s");
    report.add_e2e("cpu_us_per_op", sim.cpu_us_per_op, "us");
    report.add_e2e("vlat_p50_ms", sim.vlat_p50_ms, "ms");
    report.add_e2e("vlat_p99_ms", sim.vlat_p99_ms, "ms");
    report.add_e2e("outage_ms", sim.outage_ms, "ms");
    report.add_e2e("rejoin_p50_ms", sim.rejoin_p50_ms, "ms");
    char buf[400];
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 " ops; vlat_p99 has %" PRIu64
                  " samples beyond it; outage mean of %u episodes %.3f ms, "
                  "longest %.3f ms; set-up quartiles %.4f / %.4f ms over %u; "
                  "all episodes pooled %.1f op/s, %.1f us/op",
                  sim.completed, sim.p99_beyond, shape.episodes, sim.outage_ms,
                  sim.outage_max_ms, sim.setup_quartiles_ms.first,
                  sim.setup_quartiles_ms.second,
                  shape.episodes * kSetupsPerEpisode, sim.pooled_ops_s,
                  sim.pooled_cpu_us_per_op);
    report.note(buf);
    std::string costs;
    for (double v : sim.episode_cpu_us_per_op) costs += " " + std::to_string(std::lround(v));
    report.note("us/op per episode:" + costs);
    report.note("determinism " + sim.determinism_digest());
    return report;
  }

  // Traced mode: the same seed untraced, then traced. The virtual results
  // must match exactly (the recorder only observes), and the wall-time
  // difference is the tracing overhead.
  const SimOutcome plain = run_sim(shape, args.seed, nullptr, nullptr);
  Recording recording;
  SpanLog spans(40'000);
  const SimOutcome traced = run_sim(shape, args.seed, &recording, &spans);
  report.problems = traced.problems;
  for (const auto& p : plain.problems) report.problem("untraced run: " + p);
  report.attempted = traced.attempted;
  report.failed = traced.failed;
  if (plain.determinism_digest() != traced.determinism_digest()) {
    report.problem("determinism: same seed gave different virtual results:\n  " +
                   plain.determinism_digest() + "\n  " +
                   traced.determinism_digest());
  }
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, traced.completed));
  add_layer_metrics(report, traced, ops);
  report.add_layer("engine.idle_msgs_per_s",
                   idle_msgs_per_s(shape, args.seed, report), "1/s");
  report.add_layer("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0,
                   "ratio");
  replay_layers(recording, traced, shape, args.seed, &spans, report);
  report.note("determinism " + traced.determinism_digest());
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!spans.write(path)) report.problem("cannot write " + path);
  report.note("spans: " + std::to_string(spans.size()) + " written to " + path +
              " (" + std::to_string(spans.dropped()) + " beyond capacity)");
  return report;
}

}  // namespace perfbench
