#include <cstdio>

#include "adversary/recording_transport.hpp"
#include "net/tags.hpp"
#include "runtime/cluster.hpp"
#include "trace/trace.hpp"

/// Reproduces the paper's protocol figures from real executions:
///   Figure 1a — a correct leader's fast path (propose -> ack -> decide);
///   Figure 1b — the view change (vote -> CertReq -> CertAck), then the
///               re-proposal;
///   Figure 5  — the generalized protocol's slow path (ack signatures ->
///               Commit) when more than t processes have failed.
///
/// Run: ./build/examples/message_flow

using namespace fastbft;

namespace {

runtime::ClusterOptions lockstep(consensus::QuorumConfig cfg) {
  runtime::ClusterOptions options;
  options.cfg = cfg;
  options.net.delta = 100;
  options.net.min_delay = 100;
  return options;
}

/// Records every message `cluster` schedules from now on into `log`.
void record(runtime::Cluster& cluster, adversary::EnvelopeLog& log) {
  cluster.network().set_observer(
      [&log](const auto&... args) { log.record(args...); });
}

std::vector<Value> inputs(std::uint32_t n) {
  std::vector<Value> v;
  for (std::uint32_t i = 0; i < n; ++i) {
    v.push_back(Value::of_string("x" + std::to_string(i)));
  }
  return v;
}

void figure_1a() {
  std::printf("--- Figure 1a: fast path, n = 4, f = t = 1 (vanilla mode) "
              "---\n");
  auto options = lockstep(consensus::QuorumConfig::create(4, 1, 1));
  options.node.replica.slow_path = false;
  runtime::Cluster cluster(options, inputs(4));
  adversary::EnvelopeLog log;
  record(cluster, log);
  cluster.start();
  cluster.run_until_all_correct_decided(10'000);

  trace::RenderOptions render;
  render.tags = {net::tags::kPropose, net::tags::kAck};
  std::printf("%s", trace::render_sequence(log, 4, render).c_str());
  std::printf("=> every process holds %u acks for (x0, view 1) at t=200: "
              "decide after 2 message delays\n\n",
              cluster.config().fast_quorum());
}

void figure_1b() {
  std::printf("--- Figure 1b: view change, n = 4, f = t = 1, leader p0 dead "
              "---\n");
  auto options = lockstep(consensus::QuorumConfig::create(4, 1, 1));
  options.node.replica.slow_path = false;
  runtime::Cluster cluster(options, inputs(4));
  adversary::EnvelopeLog log;
  record(cluster, log);
  cluster.crash_at(0, 0);
  cluster.start();
  cluster.run_until_all_correct_decided(1'000'000);

  trace::RenderOptions render;
  render.hide_self_sends = false;  // the new leader's vote to itself matters
  render.tags = {net::tags::kVote, net::tags::kCertReq, net::tags::kCertAck,
                 net::tags::kPropose, net::tags::kAck};
  std::printf("%s", trace::render_sequence(log, 4, render).c_str());
  auto d = cluster.decision_of(1);
  std::printf("=> new leader p1 collected votes, certified \"%s\" with f+1 "
              "CertAcks and re-proposed; decided in view %llu\n\n",
              d->value.to_string().c_str(),
              static_cast<unsigned long long>(d->view));
}

void figure_5() {
  std::printf("--- Figure 5: slow path, n = 7, f = 2, t = 1, two processes "
              "dead ---\n");
  auto options = lockstep(consensus::QuorumConfig::create(7, 2, 1));
  runtime::Cluster cluster(options, inputs(7));
  adversary::EnvelopeLog log;
  record(cluster, log);
  cluster.crash_at(5, 0);
  cluster.crash_at(6, 0);
  cluster.start();
  cluster.run_until_all_correct_decided(1'000'000);

  trace::RenderOptions render;
  render.tags = {net::tags::kPropose, net::tags::kAck, net::tags::kAckSig,
                 net::tags::kCommit};
  std::printf("%s", trace::render_sequence(log, 7, render).c_str());
  std::printf("=> only %u acks possible (< fast quorum %u), but "
              "ceil((n+f+1)/2) = %u signed acks form a commit certificate: "
              "decide after 3 delays via Commit\n",
              5u, cluster.config().fast_quorum(),
              cluster.config().commit_quorum());
}

}  // namespace

int main() {
  std::printf("message_flow: the paper's figures, regenerated from real "
              "executions\n\n");
  figure_1a();
  figure_1b();
  figure_5();
  return 0;
}
