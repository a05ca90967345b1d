#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/stats.hpp"
#include "net/transport.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

/// \file sim_network.hpp
/// Deterministic simulated network implementing the paper's partially
/// synchronous model: reliable authenticated point-to-point channels whose
/// delays are adversary-controlled before GST and bounded by Delta after
/// GST. Self-sends are delivered with zero delay (local computation is
/// treated as instantaneous, matching the paper's convention).
///
/// Two levels of control are exposed:
///  * a stochastic model (min/max delay post-GST, larger pre-GST delays,
///    seeded jitter) used by the property tests and benchmarks, and
///  * a per-message `DeliveryScript` hook with which a test can dictate the
///    exact delivery time of any message — this is how the Theorem 4.5
///    lower-bound attack stages its five-group schedule.

namespace fastbft::net {

struct SimNetworkConfig {
  /// The synchrony bound Delta (ticks). After GST every message sent at s is
  /// delivered at some point in (s, s + delta].
  Duration delta = 100;

  /// Global stabilization time. Before GST delays are drawn from
  /// [delta, pre_gst_max_delay] (still reliable — nothing is lost).
  TimePoint gst = 0;
  Duration pre_gst_max_delay = 2000;

  /// Post-GST jitter: delays uniform in [min_delay, delta]. min_delay = delta
  /// gives the "lock-step" executions used for latency measurements.
  Duration min_delay = 100;

  std::uint64_t seed = 1;
};

/// Chaos-mode fault on one DIRECTED link: extra delivery delay drawn
/// uniformly from [extra_min, extra_max] on top of the stochastic model,
/// plus a per-message drop probability in permille. Dropping relaxes the
/// reliable-channel assumption deliberately — safety of the protocol never
/// depends on delivery, only liveness does, which is exactly what the
/// chaos harness (src/chaos) probes. Faults are consulted by send() for
/// remote messages only (self-sends stay instantaneous and lossless).
struct LinkFault {
  Duration extra_min = 0;
  Duration extra_max = 0;
  std::uint32_t drop_permille = 0;  ///< 0..1000

  friend bool operator==(const LinkFault&, const LinkFault&) = default;
};

class SimNetwork;

/// Per-process transport endpoint handed to protocol engines.
class SimEndpoint final : public Transport {
 public:
  SimEndpoint(SimNetwork& net, ProcessId self) : net_(net), self_(self) {}

  void send(ProcessId to, SharedBytes payload) override;
  std::uint32_t cluster_size() const override;
  ProcessId self() const override { return self_; }

 private:
  SimNetwork& net_;
  ProcessId self_;
};

class SimNetwork {
 public:
  /// `n` is the replica cluster size (what endpoints report as
  /// cluster_size(), i.e. what broadcasts cover); `extra_endpoints` adds
  /// client endpoints with ids n .. n + extra - 1 that can attach
  /// handlers, send point-to-point and receive, but are never broadcast
  /// targets and are invisible to the consensus membership.
  /// Returning nullopt defers to the stochastic model; returning a time
  /// schedules delivery exactly then (must be > now for remote, >= now for
  /// self sends). Returning `kTimeInfinity` parks the message until
  /// `flush_parked` (used to model "delayed until after T" schedules; the
  /// channel stays reliable because the test eventually flushes).
  using DeliveryScript =
      std::function<std::optional<TimePoint>(const Envelope&, TimePoint now)>;

  /// Passive observer invoked for every message at send time with its
  /// scheduled delivery time (kTimeInfinity for parked messages). Used by
  /// the trace recorder (src/trace) to render message-flow diagrams.
  using Observer = std::function<void(const Envelope&, TimePoint sent,
                                      TimePoint delivered)>;

  SimNetwork(sim::Scheduler& sched, std::uint32_t n, SimNetworkConfig config,
             std::uint32_t extra_endpoints = 0);

  /// Registers the receive handler for process `id`. Must be set before any
  /// message addressed to `id` is delivered.
  void attach(ProcessId id, ReceiveHandler handler);

  /// Creates the transport endpoint for process `id`.
  std::unique_ptr<SimEndpoint> endpoint(ProcessId id);

  void send(ProcessId from, ProcessId to, SharedBytes payload);

  /// Cuts delivery of everything sent *to or from* `id` (process crash at
  /// the network level: messages already in flight still arrive, nothing
  /// new is accepted). Used to model fail-stop behaviours.
  void disconnect(ProcessId id);

  /// Reverses disconnect(): `id` sends and receives again. Messages
  /// addressed to it while disconnected stay dropped (a crash loses
  /// volatile state; rejoin recovery is the protocol's job — see
  /// runtime::Cluster::restart_at).
  void reconnect(ProcessId id);

  bool is_disconnected(ProcessId id) const { return disconnected_[id]; }

  void set_script(DeliveryScript script) { script_ = std::move(script); }
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  // --- Schedule-driven fault hooks (chaos harness; see docs/CHAOS.md) --------

  /// Splits the network into two sides: a message whose endpoints sit on
  /// DIFFERENT sides is dropped at send time. `side[id]` is 0 or 1; ids
  /// beyond the vector (or with any other value) straddle the partition
  /// and keep talking to everyone — pass a vector covering only the
  /// replicas to leave client endpoints reachable from both sides.
  /// Replaces any active partition.
  void set_partition(std::vector<std::uint8_t> side);
  void clear_partition() { partition_.clear(); }
  bool partition_active() const { return !partition_.empty(); }

  /// Installs (or replaces) a fault on the directed link from -> to.
  void set_link_fault(ProcessId from, ProcessId to, LinkFault fault);
  void clear_link_fault(ProcessId from, ProcessId to);
  void clear_link_faults() { link_faults_.clear(); }

  /// Messages dropped by partitions and link faults (NOT disconnects).
  std::uint64_t dropped_count() const { return dropped_; }

  /// Releases all messages parked by a script at `kTimeInfinity`; they are
  /// delivered `delta` after the call.
  void flush_parked();

  /// Replica cluster size (broadcast scope). Client endpoints not counted.
  std::uint32_t size() const { return n_; }

  /// Replicas plus client endpoints — the valid ProcessId range.
  std::uint32_t total_size() const {
    return static_cast<std::uint32_t>(handlers_.size());
  }
  const NetworkStats& stats() const { return stats_; }
  NetworkStats& stats() { return stats_; }
  sim::Scheduler& scheduler() { return sched_; }
  const SimNetworkConfig& config() const { return config_; }

  std::uint64_t delivered_count() const { return delivered_; }

 private:
  void deliver_at(TimePoint at, Envelope env);
  void deliver(std::uint32_t slot);

  sim::Scheduler& sched_;
  std::uint32_t n_;
  SimNetworkConfig config_;
  sim::Rng rng_;
  /// Fault decisions draw from their own stream so enabling chaos hooks
  /// never perturbs the baseline delay sequence of a given seed.
  sim::Rng fault_rng_;
  std::vector<ReceiveHandler> handlers_;
  std::vector<bool> disconnected_;
  std::vector<Envelope> parked_;
  /// In-flight envelopes, recycled through `inflight_free_`: a delivery
  /// event captures only its slot index, which keeps the closure inside
  /// std::function's inline buffer.
  std::vector<Envelope> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  DeliveryScript script_;
  Observer observer_;
  NetworkStats stats_;
  std::uint64_t delivered_ = 0;
  std::vector<std::uint8_t> partition_;
  std::map<std::pair<ProcessId, ProcessId>, LinkFault> link_faults_;
  std::uint64_t dropped_ = 0;
};

}  // namespace fastbft::net
