#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/threaded_network.hpp"

/// net::ThreadedNetwork on its own: the wire under smr::Service's threaded
/// backend (whose protocol runs are in test_service and test_threaded_smr).

namespace fastbft::net {
namespace {

using namespace std::chrono_literals;

TEST(ThreadedNetworkTest, StopIsIdempotentAndDestructorSafe) {
  ThreadedNetwork network(2);
  network.attach(0, [](ProcessId, const Bytes&) {});
  network.attach(1, [](ProcessId, const Bytes&) {});
  network.start();
  network.send(0, 1, {0x01});
  network.stop();
  network.stop();  // second stop is a no-op
}

TEST(ThreadedNetworkTest, DisconnectedProcessReceivesNothingFurther) {
  ThreadedNetwork network(2);
  std::atomic<int> received{0};
  network.attach(0, [](ProcessId, const Bytes&) {});
  network.attach(1, [&](ProcessId, const Bytes&) { received.fetch_add(1); });
  network.start();
  network.disconnect(1);
  for (int i = 0; i < 50; ++i) network.send(0, 1, {0x01});
  std::this_thread::sleep_for(50ms);
  network.stop();
  EXPECT_EQ(received.load(), 0);
}

}  // namespace
}  // namespace fastbft::net
