#include "net/sim_network.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace fastbft::net {

void SimEndpoint::send(ProcessId to, SharedBytes payload) {
  net_.send(self_, to, std::move(payload));
}

std::uint32_t SimEndpoint::cluster_size() const { return net_.size(); }

SimNetwork::SimNetwork(sim::Scheduler& sched, std::uint32_t n,
                       SimNetworkConfig config,
                       std::uint32_t extra_endpoints)
    : sched_(sched),
      n_(n),
      config_(config),
      rng_(config.seed ^ 0x6e657477ULL),
      fault_rng_(config.seed ^ 0x6368616fULL),
      handlers_(n + extra_endpoints),
      disconnected_(n + extra_endpoints, false) {
  FASTBFT_ASSERT(config_.min_delay >= 1 && config_.min_delay <= config_.delta,
                 "min_delay must be in [1, delta]");
  FASTBFT_ASSERT(config_.pre_gst_max_delay >= config_.delta,
                 "pre-GST delays cannot undercut delta");
}

void SimNetwork::attach(ProcessId id, ReceiveHandler handler) {
  FASTBFT_ASSERT(id < total_size(), "attach: id out of range");
  handlers_[id] = std::move(handler);
}

std::unique_ptr<SimEndpoint> SimNetwork::endpoint(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "endpoint: id out of range");
  return std::make_unique<SimEndpoint>(*this, id);
}

void SimNetwork::send(ProcessId from, ProcessId to, SharedBytes payload) {
  FASTBFT_ASSERT(from < total_size() && to < total_size(),
                 "send: id out of range");
  if (disconnected_[from] || disconnected_[to]) return;

  // Chaos fault hooks: partitions and per-link drops claim the message
  // before it reaches the stochastic model. Self-sends are local
  // computation and exempt.
  Duration extra_delay = 0;
  if (from != to) {
    if (!partition_.empty()) {
      std::uint8_t side_from =
          from < partition_.size() ? partition_[from] : 2;
      std::uint8_t side_to = to < partition_.size() ? partition_[to] : 2;
      if (side_from <= 1 && side_to <= 1 && side_from != side_to) {
        ++dropped_;
        return;
      }
    }
    if (!link_faults_.empty()) {
      auto it = link_faults_.find({from, to});
      if (it != link_faults_.end()) {
        const LinkFault& fault = it->second;
        if (fault.drop_permille > 0 &&
            fault_rng_.chance(fault.drop_permille, 1000)) {
          ++dropped_;
          return;
        }
        if (fault.extra_max > 0) {
          extra_delay =
              fault_rng_.next_in_range(fault.extra_min, fault.extra_max);
        }
      }
    }
  }

  stats_.record_send(payload);
  Envelope env{from, to, std::move(payload)};
  TimePoint now = sched_.now();

  if (script_) {
    if (auto scripted = script_(env, now)) {
      if (*scripted >= kTimeInfinity) {
        if (observer_) observer_(env, now, kTimeInfinity);
        parked_.push_back(std::move(env));
        return;
      }
      FASTBFT_ASSERT(*scripted >= now, "script scheduled into the past");
      if (observer_) observer_(env, now, *scripted);
      deliver_at(*scripted, std::move(env));
      return;
    }
  }

  if (from == to) {
    // Local hand-off: instantaneous, consistent with the paper's
    // "local computation takes no time".
    if (observer_) observer_(env, now, now);
    deliver_at(now, std::move(env));
    return;
  }

  Duration delay;
  if (now < config_.gst) {
    delay = rng_.next_in_range(config_.delta, config_.pre_gst_max_delay);
    // A message sent just before GST must still respect eventual synchrony:
    // it is delivered within delta after GST at the latest.
    TimePoint latest = config_.gst + config_.delta;
    if (now + delay > latest) delay = latest - now;
  } else {
    delay = rng_.next_in_range(config_.min_delay, config_.delta);
  }
  delay += extra_delay;
  if (observer_) observer_(env, now, now + delay);
  deliver_at(now + delay, std::move(env));
}

void SimNetwork::set_partition(std::vector<std::uint8_t> side) {
  partition_ = std::move(side);
}

void SimNetwork::set_link_fault(ProcessId from, ProcessId to,
                                LinkFault fault) {
  FASTBFT_ASSERT(from < total_size() && to < total_size(),
                 "set_link_fault: id out of range");
  FASTBFT_ASSERT(fault.extra_min >= 0 && fault.extra_min <= fault.extra_max,
                 "set_link_fault: bad delay range");
  FASTBFT_ASSERT(fault.drop_permille <= 1000,
                 "set_link_fault: drop_permille > 1000");
  link_faults_[{from, to}] = fault;
}

void SimNetwork::clear_link_fault(ProcessId from, ProcessId to) {
  link_faults_.erase({from, to});
}

void SimNetwork::deliver_at(TimePoint at, Envelope env) {
  std::uint32_t slot;
  if (inflight_free_.empty()) {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.push_back(std::move(env));
  } else {
    slot = inflight_free_.back();
    inflight_free_.pop_back();
    inflight_[slot] = std::move(env);
  }
  sched_.post_at(at, [this, slot] { deliver(slot); });
}

void SimNetwork::deliver(std::uint32_t slot) {
  Envelope env = std::move(inflight_[slot]);
  inflight_free_.push_back(slot);
  if (disconnected_[env.to]) return;
  ++delivered_;
  FASTBFT_ASSERT(static_cast<bool>(handlers_[env.to]),
                 "message delivered to a process with no handler");
  handlers_[env.to](env.from, env.payload);
}

void SimNetwork::disconnect(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "disconnect: id out of range");
  disconnected_[id] = true;
}

void SimNetwork::reconnect(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "reconnect: id out of range");
  disconnected_[id] = false;
}

void SimNetwork::flush_parked() {
  std::vector<Envelope> parked = std::move(parked_);
  parked_.clear();
  TimePoint at = sched_.now() + config_.delta;
  for (Envelope& env : parked) {
    deliver_at(at, std::move(env));
  }
}

}  // namespace fastbft::net
