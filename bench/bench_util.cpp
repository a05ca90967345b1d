#include "bench_util.hpp"

#include "common/assert.hpp"

namespace fastbft::bench {

RunMetrics run_scenario(const Scenario& scenario) {
  runtime::ClusterOptions options;
  options.cfg = consensus::QuorumConfig::create(scenario.n, scenario.f,
                                                scenario.t);
  options.net.delta = scenario.delta;
  options.net.min_delay = scenario.delta;  // lock-step latency measurement
  options.net.gst = scenario.gst;
  options.net.seed = scenario.seed;
  options.key_seed = scenario.seed * 7919 + 13;

  switch (scenario.protocol) {
    case Protocol::Ours:
      // The generalised protocol as the paper's tables measure it: slow
      // path on even at t = f, where the replica's default turns it off.
      options.node.replica.slow_path = true;
      break;
    case Protocol::OursVanilla:
      options.node.replica.slow_path = false;
      break;
    case Protocol::Fab:
      options.node_factory = fab::node_factory();
      break;
    case Protocol::Pbft:
      options.node_factory = pbft::node_factory();
      break;
  }

  std::vector<Value> inputs;
  for (std::uint32_t i = 0; i < scenario.n; ++i) {
    inputs.push_back(Value::of_string("input-" + std::to_string(i)));
  }

  runtime::Cluster cluster(options, std::move(inputs));
  for (const auto& [id, at] : scenario.crashes) cluster.crash_at(id, at);
  for (const auto& [id, factory] : scenario.byzantine) {
    cluster.replace_process(id, factory);
  }
  cluster.start();

  RunMetrics metrics;
  metrics.decided = cluster.run_until_all_correct_decided(scenario.limit);
  FASTBFT_ASSERT(cluster.agreement(), "benchmark run violated agreement");
  metrics.delays = cluster.max_decision_delays();
  metrics.messages = cluster.network().stats().total_messages();
  metrics.bytes = cluster.network().stats().total_bytes();
  for (const auto& d : cluster.decisions()) {
    metrics.max_view = std::max(metrics.max_view, d.view);
    metrics.any_slow_path |= d.via_slow_path;
  }
  for (ProcessId id = 0; id < scenario.n; ++id) {
    if (runtime::Node* node = cluster.node(id)) {
      metrics.max_cert_bytes =
          std::max(metrics.max_cert_bytes, node->replica().max_cert_bytes_seen());
    }
  }
  return metrics;
}

}  // namespace fastbft::bench
