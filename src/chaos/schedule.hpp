#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "net/sim_network.hpp"

/// \file schedule.hpp
/// The chaos scenario grammar: a Schedule is a fully self-contained,
/// serializable description of one chaos run — cluster shape, workload
/// shape, Byzantine role assignment, and a timeline of fault events. The
/// harness (chaos/harness.hpp) executes a Schedule deterministically, so
///
///   schedule == schedule'  =>  identical history, identical verdict,
///
/// which is what makes shrinking meaningful: the delta-debugging minimizer
/// edits the Schedule (never the run) and re-executes, and a minimized
/// failing Schedule committed as hex (to_hex/from_hex) is a permanent
/// regression test. `generate_schedule(seed)` derives the whole scenario
/// from one u64, so a seed alone also names a run (docs/CHAOS.md).

namespace fastbft::chaos {

/// One timed fault action. Events are executed at absolute simulated time
/// `at`; the harness guards impossible transitions (crashing a crashed
/// replica, restarting a live one) by skipping them, so ANY subset of a
/// valid event list is itself valid — the property the shrinker relies on.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    Crash = 1,           ///< fail-stop replica `a`
    Restart = 2,         ///< recover replica `a`
    PartitionStart = 3,  ///< split replicas by `side_mask` (bit i = side)
    PartitionHeal = 4,
    LinkFault = 5,       ///< install `fault` on directed link a -> b
    LinkHeal = 6,
  };

  Kind kind = Kind::Crash;
  TimePoint at = 0;
  ProcessId a = 0;
  ProcessId b = 0;
  std::uint32_t side_mask = 0;
  net::LinkFault fault;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

struct Schedule {
  /// Seed this schedule was generated from (also seeds the network model,
  /// the workload RNGs and the key material — see ServiceConfig::with_seed).
  std::uint64_t seed = 1;

  // Cluster shape.
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t t = 1;

  // Workload shape.
  std::uint32_t shards = 1;
  std::uint32_t sessions = 2;
  std::uint32_t ops_per_session = 30;
  std::uint32_t key_space = 8;
  std::uint32_t pipeline_depth = 2;
  /// RETIRED: once ran the cluster under adaptive pipeline control, which
  /// is gone; pipeline_depth is the only window size. The harness ignores
  /// the bit, and it stays in the encoding so committed and quoted
  /// schedules still decode.
  bool adaptive = false;
  /// Rotate slot leadership round-robin (the post-PR-1 engine path the
  /// legacy adversary suite never exercised; generated schedules draw it).
  bool rotate_leaders = false;

  // Byzantine roles (bit i = replica i).
  /// Replicas that execute honestly but sign fabricated results into
  /// their SMR_REPLYs. Keep popcount <= f or the f+1 reply quorum is
  /// unsound and the checker will (correctly!) flag the run.
  std::uint32_t lying_mask = 0;
  /// RETIRED: replicas that once sabotaged the client-request relay.
  /// Sessions now send every request to all replicas, so no replica
  /// relays and the harness ignores both fields. They stay in the
  /// encoding and the generator keeps drawing them, so committed
  /// schedules and every seed's fault timeline replay unchanged.
  std::uint32_t byz_gateway_mask = 0;
  bool corrupt_forwards = false;

  /// TEST HOOK: run sessions with unsafe_first_reply_quorum (see
  /// SessionConfig) — the deliberately injected bug the checker catches.
  bool unsafe_first_reply_quorum = false;

  /// Workload/fault window in simulated ticks. The harness heals all
  /// faults once the workload finished and the last fault fired, then
  /// drives the cluster to convergence.
  TimePoint horizon = 60'000;

  /// Fault timeline, sorted by `at`.
  std::vector<FaultEvent> faults;

  void encode(Encoder& enc) const;
  static std::optional<Schedule> decode(Decoder& dec);

  /// Hex round-trip for artifacts and committed regression schedules.
  std::string to_hex() const;
  static std::optional<Schedule> from_hex(std::string_view hex);

  /// Multi-line human-readable rendering.
  std::string to_string() const;

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

/// Bounds for the schedule generator.
struct ScenarioOptions {
  std::uint32_t shards = 1;
  std::uint32_t sessions = 2;
  std::uint32_t ops_per_session = 30;
  /// Force at least one lying replica (used with the injected bug so the
  /// checker has something to catch).
  bool force_liar = false;
  std::uint32_t max_fault_events = 6;
};

/// Derives a complete scenario from `seed`: crash/restart cycles on one
/// victim (respecting the f budget), partitions that always heal, lossy /
/// slow links, and randomized Byzantine role assignment.
Schedule generate_schedule(std::uint64_t seed,
                           const ScenarioOptions& options = {});

}  // namespace fastbft::chaos
