#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/checker.hpp"
#include "chaos/schedule.hpp"

/// \file harness.hpp
/// The chaos scenario runner: executes one Schedule against a full
/// smr::Service cluster on the deterministic simulator — randomized
/// crash/rejoin, partitions, lossy and slow links, reply-forging
/// Byzantine replicas, concurrent multi-session put/get/del/cas/mget
/// workloads across S shards — while recording the complete client
/// history and every delivered envelope, then audits the history with the
/// linearizability checker.
///
/// Determinism contract: a Schedule fully determines the run. Identical
/// schedules produce identical histories, identical envelope streams
/// (checked via digests) and identical verdicts, which is what makes
/// `chaos_fuzz --seed` a bit-for-bit reproduction and lets the shrinker
/// minimize by editing the schedule alone. See docs/CHAOS.md.

namespace fastbft::chaos {

struct RunResult {
  CheckResult check;

  /// Correct replicas' store digests agreed after the post-workload heal
  /// and convergence grace. Independent of the client-side audit.
  bool stores_converged = false;

  std::uint64_t ops_completed = 0;
  std::uint64_t ops_timed_out = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t envelopes_dropped = 0;

  /// Reproducibility witnesses (see history_digest / EnvelopeLog::digest).
  crypto::Digest history_digest{};
  crypto::Digest envelope_digest{};

  std::vector<OpRecord> history;

  /// A run fails when the checker conclusively rejects the history or the
  /// correct replicas never converged.
  bool failed() const {
    return (!check.linearizable && check.conclusive) || !stores_converged;
  }
};

class Harness {
 public:
  explicit Harness(CheckerOptions checker_options = {})
      : checker_options_(checker_options) {}

  /// Executes `schedule` to completion and audits the observed history.
  RunResult run(const Schedule& schedule) const;

  struct ShrinkResult {
    Schedule schedule;       ///< Minimized schedule (still failing).
    std::uint32_t runs = 0;  ///< Re-executions the minimization spent.
    /// Events/knobs removed relative to the input schedule.
    std::uint32_t removed_events = 0;
  };

  /// Greedy delta-debugging: repeatedly re-runs edited copies of
  /// `failing`, keeping every edit after which the run still fails —
  /// fault events first (ddmin over the timeline), then Byzantine roles
  /// and workload-shape knobs. `failing` must itself fail.
  ShrinkResult shrink(const Schedule& failing,
                      std::uint32_t max_runs = 80) const;

 private:
  CheckerOptions checker_options_;
};

}  // namespace fastbft::chaos
