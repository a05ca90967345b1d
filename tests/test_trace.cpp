#include <gtest/gtest.h>

#include "adversary/recording_transport.hpp"
#include "net/tags.hpp"
#include "runtime/cluster.hpp"
#include "trace/trace.hpp"

namespace fastbft::trace {
namespace {

runtime::ClusterOptions lockstep() {
  runtime::ClusterOptions options;
  options.cfg = consensus::QuorumConfig::create(4, 1, 1);
  options.net.delta = 100;
  options.net.min_delay = 100;
  return options;
}

/// Records every message `network` schedules into `log`.
void record(net::SimNetwork& network, adversary::EnvelopeLog& log) {
  network.set_observer([&log](const auto&... args) { log.record(args...); });
}

std::vector<Value> inputs() {
  return {Value::of_string("a"), Value::of_string("b"),
          Value::of_string("c"), Value::of_string("d")};
}

TEST(Trace, RecordsEveryMessage) {
  runtime::Cluster cluster(lockstep(), inputs());
  adversary::EnvelopeLog log;
  record(cluster.network(), log);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(10'000));
  EXPECT_EQ(log.records().size(),
            cluster.network().stats().total_messages());
}

TEST(Trace, TagFilter) {
  runtime::Cluster cluster(lockstep(), inputs());
  adversary::EnvelopeLog log;
  record(cluster.network(), log);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(10'000));
  std::size_t proposes = 0;
  for (const auto& m : log.records()) {
    if (m.kind.tag != net::tags::kPropose) continue;
    ++proposes;
    EXPECT_EQ(m.from, 0u);
    EXPECT_EQ(m.sent, 0);
  }
  EXPECT_EQ(proposes, 4u);  // one broadcast from the leader
}

TEST(Trace, DeliveryTimesRespectDelta) {
  runtime::Cluster cluster(lockstep(), inputs());
  adversary::EnvelopeLog log;
  record(cluster.network(), log);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(10'000));
  for (const auto& m : log.records()) {
    if (m.from == m.to) {
      EXPECT_EQ(m.delivered, m.sent);
    } else {
      EXPECT_EQ(m.delivered - m.sent, 100);  // lock-step
    }
  }
}

TEST(Trace, RenderCollapsesBroadcasts) {
  runtime::Cluster cluster(lockstep(), inputs());
  adversary::EnvelopeLog log;
  record(cluster.network(), log);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(10'000));

  RenderOptions options;
  options.tags = {net::tags::kPropose};
  std::string diagram = render_sequence(log, 4, options);
  // Leader's broadcast renders as one line to '*', not four lines.
  EXPECT_NE(diagram.find("p0 -> *"), std::string::npos);
  EXPECT_NE(diagram.find("PROPOSE"), std::string::npos);
  EXPECT_EQ(diagram.find("ACK"), std::string::npos) << "tag filter leaked";
}

TEST(Trace, RenderHidesSelfSendsByDefault) {
  runtime::Cluster cluster(lockstep(), inputs());
  adversary::EnvelopeLog log;
  record(cluster.network(), log);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(10'000));
  std::string diagram = render_sequence(log, 4, {});
  EXPECT_EQ(diagram.find("p0 -> {p0}"), std::string::npos);
}

TEST(Trace, RenderUntilCutsOff) {
  runtime::Cluster cluster(lockstep(), inputs());
  adversary::EnvelopeLog log;
  record(cluster.network(), log);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all_correct_decided(10'000));
  RenderOptions options;
  options.until = 50;  // only the t=0 sends
  std::string diagram = render_sequence(log, 4, options);
  // No rendered line may *start* at t=100 (note "delivered t=100" appears
  // inside the t=0 lines).
  EXPECT_EQ(diagram.find("\nt=100\t"), std::string::npos);
  EXPECT_EQ(diagram.rfind("t=0\t", 0), 0u) << "first line must be a t=0 send";
}

TEST(Trace, ParkedMessagesMarkedDelayed) {
  sim::Scheduler sched;
  net::SimNetworkConfig config;
  config.delta = 100;
  config.min_delay = 100;
  net::SimNetwork network(sched, 2, config);
  network.attach(0, [](ProcessId, const Bytes&) {});
  network.attach(1, [](ProcessId, const Bytes&) {});
  adversary::EnvelopeLog log;
  record(network, log);
  network.set_script([](const net::Envelope&, TimePoint) {
    return std::optional<TimePoint>(kTimeInfinity);
  });
  network.send(0, 1, {net::tags::kAck});
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_GE(log.records()[0].delivered, kTimeInfinity);
  std::string diagram = render_sequence(log, 2, {});
  EXPECT_NE(diagram.find("delayed indefinitely"), std::string::npos);
}

}  // namespace
}  // namespace fastbft::trace
