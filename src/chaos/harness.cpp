#include "chaos/harness.hpp"

#ifdef CHAOS_DEBUG_TRACE
#include <cstdio>
#endif

#include <algorithm>
#include <deque>
#include <map>
#include <memory>

#include "adversary/recording_transport.hpp"
#include "common/assert.hpp"
#include "sim/random.hpp"
#include "smr/service.hpp"

namespace fastbft::chaos {

namespace {

/// Total per-request budget: rides out several failovers (timeout 6000)
/// plus a partition's worth of delay, yet guarantees every future
/// resolves — the workload's closed loops never wedge.
constexpr Duration kRequestDeadline = 14'000;

/// Closed-loop workload state shared between lane callbacks. Lives in a
/// shared_ptr because the last on_ready callbacks can fire while the
/// convergence phase is already driving the scheduler.
struct Workload {
  std::deque<OpRecord> records;
  /// Values previously PUT per key — cas `expected` draws from here so
  /// some casses genuinely race for the same expected value.
  std::map<std::string, std::vector<std::string>> written;
  std::uint32_t lanes_done = 0;
};

struct Lane {
  std::uint32_t session = 0;
  std::uint32_t remaining = 0;
  std::uint32_t value_counter = 0;
  sim::Rng rng;

  Lane(std::uint32_t session, std::uint32_t ops, sim::Rng rng)
      : session(session), remaining(ops), rng(rng) {}
};

class Driver {
 public:
  Driver(smr::Service& service, const Schedule& schedule,
         std::shared_ptr<Workload> work)
      : service_(service), schedule_(schedule), work_(std::move(work)) {
    sim::Rng root(schedule_.seed ^ 0x776f726bULL);
    for (std::uint32_t k = 0; k < schedule_.sessions; ++k) {
      lanes_.push_back(std::make_shared<Lane>(
          k, schedule_.ops_per_session, root.fork(k + 1)));
    }
  }

  void start() {
    for (auto& lane : lanes_) step(lane);
  }

 private:
  TimePoint now() const {
    return service_.sim_network()->scheduler().now();
  }

  std::string pick_key(Lane& lane) {
    return "k" + std::to_string(lane.rng.next_below(schedule_.key_space));
  }

  OpRecord& new_record(Lane& lane, smr::OpKind kind, std::string key) {
    work_->records.emplace_back();
    OpRecord& rec = work_->records.back();
    rec.client_id = schedule_.n + lane.session;
    rec.kind = kind;
    rec.key = std::move(key);
    rec.invoked = now();
    return rec;
  }

  /// One closed-loop step: draw an op, submit it, chain the next step
  /// onto its completion. Futures always resolve (kRequestDeadline), so
  /// every lane runs to exactly `ops_per_session` recorded ops.
  void step(std::shared_ptr<Lane> lane) {
    if (lane->remaining == 0) {
      ++work_->lanes_done;
      return;
    }
    --lane->remaining;
    smr::ClientSession& session = service_.session(lane->session);
    std::uint64_t draw = lane->rng.next_below(100);
    if (draw < 40) {
      std::string key = pick_key(*lane);
      std::string value = "s" + std::to_string(lane->session) + "n" +
                          std::to_string(lane->value_counter++);
      OpRecord& rec = new_record(*lane, smr::OpKind::Put, key);
      rec.value = value;
      std::size_t index = work_->records.size() - 1;
      work_->written[key].push_back(value);
      finish_one(session.put(key, value), lane, index);
    } else if (draw < 65) {
      std::string key = pick_key(*lane);
      std::size_t index = work_->records.size();
      new_record(*lane, smr::OpKind::Get, key);
      finish_one(session.get(key), lane, index);
    } else if (draw < 77) {
      std::string key = pick_key(*lane);
      std::size_t index = work_->records.size();
      new_record(*lane, smr::OpKind::Del, key);
      finish_one(session.del(key), lane, index);
    } else if (draw < 90) {
      std::string key = pick_key(*lane);
      const auto& pool = work_->written[key];
      std::string expected =
          !pool.empty() && lane->rng.chance(3, 4)
              ? pool[lane->rng.next_below(pool.size())]
              : "absent" + std::to_string(lane->rng.next_below(4));
      std::string value = "s" + std::to_string(lane->session) + "n" +
                          std::to_string(lane->value_counter++);
      OpRecord& rec = new_record(*lane, smr::OpKind::Cas, key);
      rec.value = value;
      rec.expected = expected;
      std::size_t index = work_->records.size() - 1;
      work_->written[key].push_back(value);
      finish_one(session.cas(key, expected, value), lane, index);
    } else {
      // mget over 2-3 distinct keys: recorded as independent per-key
      // reads sharing the batch's interval (each sub-read's true interval
      // is contained in it — a sound widening; the batch is documented as
      // per-key reads, not a snapshot). Clamped to the key space: a
      // shrunk schedule can have fewer distinct keys than the draw asks
      // for, and the distinct-key loop below must stay satisfiable.
      std::size_t fan = 2 + lane->rng.next_below(2);
      fan = std::min<std::size_t>(fan, schedule_.key_space);
      std::vector<std::string> keys;
      std::vector<std::size_t> indices;
      while (keys.size() < fan) {
        std::string key = pick_key(*lane);
        if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
        indices.push_back(work_->records.size());
        new_record(*lane, smr::OpKind::Get, key);
        keys.push_back(std::move(key));
      }
      auto work = work_;
      auto self = this;
      session.mget(keys).on_ready(
          [self, work, lane, indices](const std::vector<smr::Reply>& replies) {
            TimePoint at = self->now();
            for (std::size_t i = 0; i < indices.size(); ++i) {
              OpRecord& rec = work->records[indices[i]];
              rec.returned = at;
              rec.completed = true;
              rec.reply = replies[i];
              rec.sequence = replies[i].sequence;
            }
            self->step(lane);
          });
    }
  }

  void finish_one(smr::Future<smr::Reply> future, std::shared_ptr<Lane> lane,
                  std::size_t index) {
    auto work = work_;
    auto self = this;
    std::move(future).on_ready([self, work, lane, index](const smr::Reply& reply) {
      OpRecord& rec = work->records[index];
      rec.returned = self->now();
      rec.completed = true;
      rec.reply = reply;
      rec.sequence = reply.sequence;
      self->step(lane);
    });
  }

  smr::Service& service_;
  const Schedule& schedule_;
  std::shared_ptr<Workload> work_;
  std::vector<std::shared_ptr<Lane>> lanes_;
};

}  // namespace

RunResult Harness::run(const Schedule& schedule) const {
  FASTBFT_ASSERT(schedule.n >= 1 && schedule.sessions >= 1 &&
                     schedule.key_space >= 1,
                 "degenerate schedule");

  smr::ServiceConfig config;
  config.with_cluster(schedule.n, schedule.f, schedule.t)
      .with_sessions(schedule.sessions)
      .with_shards(std::max(1u, schedule.shards))
      .with_pipeline_depth(std::max(1u, schedule.pipeline_depth))
      .with_rotating_leaders(schedule.rotate_leaders)
      .with_deadline(kRequestDeadline)
      .with_seed(schedule.seed);
  config.unsafe_first_reply_quorum = schedule.unsafe_first_reply_quorum;
  {
    std::uint32_t lying = schedule.lying_mask;
    config.with_tune_replica(
        [lying](ProcessId id, smr::SmrOptions& smr) {
          // Cap view-timeout doubling: under chaos-grade loss a stalled
          // slot can escalate views for the whole fault window, and an
          // uncapped backoff (default 2^20 * base) would push the next
          // retry — the laggard's only catch-up trigger — far beyond the
          // post-heal convergence phase. 2^7 * base = ~154k ticks keeps
          // retries live within the budget while still backing off.
          smr.node.sync.max_doublings =
              std::min<std::uint32_t>(smr.node.sync.max_doublings, 7);
          if ((lying >> id) & 1) smr.byzantine.lie_in_replies = true;
        });
  }

  auto service = smr::make_sim_service(config);
  net::SimNetwork* net = service->sim_network();
  FASTBFT_ASSERT(net != nullptr, "chaos harness requires the sim runtime");
  sim::Scheduler& sched = net->scheduler();

  adversary::EnvelopeLog log;
  net->set_observer([&log](const net::Envelope& env, TimePoint sent,
                           TimePoint delivered) {
    log.record(env, sent, delivered);
  });

  // Arm the fault timeline. The guards make every event idempotent-ish —
  // a crash of a crashed replica or a restart of a live one is skipped —
  // so any SUBSET of a valid timeline is valid, which is exactly what the
  // shrinker needs when it deletes events.
  auto down = std::make_shared<std::vector<bool>>(schedule.n, false);
  smr::Service* svc = service.get();
  for (const FaultEvent& ev : schedule.faults) {
    sched.schedule_at(ev.at, [ev, svc, net, down] {
      switch (ev.kind) {
        case FaultEvent::Kind::Crash:
          if (!(*down)[ev.a]) {
            (*down)[ev.a] = true;
            svc->crash(ev.a);
          }
          break;
        case FaultEvent::Kind::Restart:
          if ((*down)[ev.a]) {
            (*down)[ev.a] = false;
            svc->restart(ev.a);
          }
          break;
        case FaultEvent::Kind::PartitionStart: {
          std::vector<std::uint8_t> side(net->size());
          for (std::uint32_t i = 0; i < net->size(); ++i) {
            side[i] = (ev.side_mask >> i) & 1;
          }
          net->set_partition(std::move(side));
          break;
        }
        case FaultEvent::Kind::PartitionHeal:
          net->clear_partition();
          break;
        case FaultEvent::Kind::LinkFault:
          net->set_link_fault(ev.a, ev.b, ev.fault);
          break;
        case FaultEvent::Kind::LinkHeal:
          net->clear_link_fault(ev.a, ev.b);
          break;
      }
    });
  }

  auto work = std::make_shared<Workload>();
  Driver driver(*service, schedule, work);

  service->start();
  driver.start();

  // Phase 1: drive the workload to completion. Every op resolves within
  // kRequestDeadline, so the bound below is generous, not hopeful.
  std::uint64_t total_ops =
      static_cast<std::uint64_t>(schedule.sessions) * schedule.ops_per_session;
  std::chrono::milliseconds workload_budget(
      (total_ops * (kRequestDeadline + 2'000)) / 1'000 + 200);
  // The heal below must come after the whole fault timeline: a fault
  // that fired after it would never be healed, and a partition left in
  // place fails convergence whatever the replicas do.
  TimePoint last_fault = 0;
  for (const FaultEvent& ev : schedule.faults) {
    last_fault = std::max(last_fault, ev.at);
  }
  bool workload_done = service->run_until(
      [&work, &schedule, &sched, last_fault] {
        return work->lanes_done == schedule.sessions &&
               sched.now() >= last_fault;
      },
      workload_budget);

  // Phase 2: heal everything and drive the correct replicas to
  // convergence (retried duplicates drain into dedup no-ops, laggards
  // catch up via SMR_DECIDED). The budget looks extravagant — 2M ticks —
  // but a laggard's catch-up trigger is its own capped view-change
  // retry (up to ~154k ticks apart after a long fault window, see the
  // max_doublings cap above), and the event-driven scheduler skips idle
  // time, so a converging run pays only for the events it actually runs.
  net->clear_partition();
  net->clear_link_faults();
  service->run_until([] { return false; }, std::chrono::milliseconds(30));
  bool converged = service->run_until(
      [&svc = *service] { return svc.stores_agree(); },
      std::chrono::milliseconds(2000));

  RunResult result;
  result.stores_converged = workload_done && converged;
#ifdef CHAOS_DEBUG_TRACE
  std::fprintf(stderr, "[dbg] workload_done=%d converged=%d now=%llu\n",
               (int)workload_done, (int)converged,
               (unsigned long long)sched.now());
  for (ProcessId id = 0; id < schedule.n; ++id) {
    std::fprintf(stderr, "[dbg] replica %u faulty=%d applied=%llu\n", id,
                 (int)service->is_faulty(id),
                 (unsigned long long)service->applied_commands(id));
  }
  std::fprintf(stderr, "%s\n", log.dump(80).c_str());
#endif
  result.history.assign(work->records.begin(), work->records.end());
  for (const OpRecord& op : result.history) {
    if (!op.completed) continue;
    if (op.reply.timed_out()) {
      ++result.ops_timed_out;
    } else {
      ++result.ops_completed;
    }
  }
  result.envelopes = log.count();
  result.envelopes_dropped = net->dropped_count();
  result.history_digest = history_digest(result.history);
  result.envelope_digest = log.digest();

  LinearizabilityChecker checker(checker_options_);
  result.check = checker.check(result.history);

  // Drop the observer before the log dies (the service outlives `log`'s
  // scope only until return, but being explicit costs nothing).
  net->set_observer(nullptr);
  return result;
}

Harness::ShrinkResult Harness::shrink(const Schedule& failing,
                                      std::uint32_t max_runs) const {
  ShrinkResult out;
  out.schedule = failing;
  auto still_fails = [this, &out, max_runs](const Schedule& candidate) {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    return run(candidate).failed();
  };

  // The input must fail, or there is nothing to minimize.
  if (!still_fails(failing)) return out;

  Schedule& best = out.schedule;

  // 1. ddmin over the fault timeline: delete chunks, halving the chunk
  // size until single events.
  std::size_t chunk = std::max<std::size_t>(1, best.faults.size());
  while (chunk >= 1) {
    std::size_t start = 0;
    while (start < best.faults.size()) {
      Schedule candidate = best;
      std::size_t end = std::min(start + chunk, candidate.faults.size());
      candidate.faults.erase(candidate.faults.begin() + start,
                             candidate.faults.begin() + end);
      if (still_fails(candidate)) {
        out.removed_events += static_cast<std::uint32_t>(end - start);
        best = candidate;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    chunk /= 2;
  }

  // 2. Byzantine roles and workload knobs, cheapest-to-drop first. Each
  // edit is kept only while the run still fails.
  auto try_edit = [&](auto edit) {
    Schedule candidate = best;
    edit(candidate);
    if (candidate == best) return;
    if (still_fails(candidate)) best = candidate;
  };
  try_edit([](Schedule& s) { s.lying_mask = 0; });
  try_edit([](Schedule& s) { s.pipeline_depth = 1; });
  try_edit([](Schedule& s) { s.shards = 1; });
  try_edit([](Schedule& s) { s.sessions = std::max(1u, s.sessions / 2); });
  for (int i = 0; i < 3; ++i) {
    try_edit([](Schedule& s) {
      s.ops_per_session = std::max(4u, s.ops_per_session / 2);
    });
  }
  try_edit([](Schedule& s) { s.key_space = std::max(2u, s.key_space / 2); });
  return out;
}

}  // namespace fastbft::chaos
