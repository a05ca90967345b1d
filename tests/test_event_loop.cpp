#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/loop_host.hpp"
#include "engine/timer_wheel.hpp"
#include "net/event_loop.hpp"
#include "net/socket_network.hpp"
#include "net/threaded_network.hpp"

/// The net::EventLoop contract, checked once against both wire backends
/// it runs: an in-memory ThreadedNetwork pair and a SocketNetwork pair
/// connected over loopback TCP. Timers, posted tasks and the
/// handler/task FIFO rule live in the loop, so both backends must behave
/// identically here; only disconnect() is in-memory specific.

namespace fastbft::net {
namespace {

using namespace std::chrono_literals;

/// Polls `cond` against wall-clock time or gives up.
bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds budget = 5000ms) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < give_up) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

SharedBytes bytes_of(const std::string& s) {
  return SharedBytes(Bytes(s.begin(), s.end()));
}

/// Endpoints 0 and 1 of one ThreadedNetwork.
struct InMemoryPair {
  ThreadedNetwork net{2};

  void start(ReceiveHandler h0, ReceiveHandler h1) {
    net.attach(0, std::move(h0));
    net.attach(1, std::move(h1));
    net.start();
  }
  EventLoop& loop(ProcessId id) { return net.loop(id); }
  void send(ProcessId from, ProcessId to, const std::string& s) {
    net.send(from, to, bytes_of(s));
  }
  void stop() { net.stop(); }
};

/// Endpoint 0 and endpoint 1 in two SocketNetworks: every message crosses
/// a loopback TCP connection (1 dials 0's pre-bound listener).
struct SocketPair {
  std::unique_ptr<SocketNetwork> a;  // hosts id 0
  std::unique_ptr<SocketNetwork> b;  // hosts id 1

  void start(ReceiveHandler h0, ReceiveHandler h1) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
    ASSERT_EQ(::listen(fd, 16), 0);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len),
              0);

    SocketNetworkConfig config;
    config.cluster_size = 2;
    config.peers.resize(2);
    config.peers[0].port = ntohs(addr.sin_port);
    SocketNetworkConfig own = config;
    own.peers[0].adopted_listen_fd = fd;
    a = std::make_unique<SocketNetwork>(own);
    b = std::make_unique<SocketNetwork>(config);
    a->attach(0, std::move(h0));
    b->attach(1, std::move(h1));
    a->start();
    b->start();
    ASSERT_TRUE(eventually([&] {
      return a->link_stats(0, 1).connects_established >= 1 &&
             b->link_stats(1, 0).connects_established >= 1;
    }));
  }
  EventLoop& loop(ProcessId id) { return id == 0 ? a->loop(0) : b->loop(1); }
  void send(ProcessId from, ProcessId to, const std::string& s) {
    (from == 0 ? a : b)->send(from, to, bytes_of(s));
  }
  void stop() {
    b->stop();
    a->stop();
  }
};

/// Records, in loop-thread order, what endpoint 0 saw.
template <typename Pair>
class EventLoopContract : public ::testing::Test {
 protected:
  void SetUp() override {
    pair.start(
        [this](ProcessId, const Bytes& payload) {
          const std::string s(payload.begin(), payload.end());
          record("m:" + s);
          if (on_message) on_message(s);
        },
        [](ProcessId, const Bytes&) {});
  }
  void TearDown() override { pair.stop(); }

  void record(const std::string& event) {
    std::lock_guard<std::mutex> lock(mutex);
    log.push_back(event);
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return log;
  }
  std::size_t logged() {
    std::lock_guard<std::mutex> lock(mutex);
    return log.size();
  }

  Pair pair;
  std::function<void(const std::string&)> on_message;
  std::mutex mutex;
  std::vector<std::string> log;
};

using Backends = ::testing::Types<InMemoryPair, SocketPair>;
TYPED_TEST_SUITE(EventLoopContract, Backends);

TYPED_TEST(EventLoopContract, TimersFireInDeadlineOrderAndCancelDrops) {
  EventLoop& loop = this->pair.loop(0);
  const std::uint64_t fired_before = loop.timers_fired();
  // Timers are same-thread only: arm them from inside the loop.
  loop.post([&] {
    const TimePoint now = EventLoop::now();
    loop.arm_timer(now + 20'000, [&] { this->record("t20"); });
    loop.arm_timer(now + 5'000, [&] { this->record("t5"); });
    auto key = loop.arm_timer(now + 10'000, [&] { this->record("t10"); });
    loop.cancel_timer(key);
  });
  ASSERT_TRUE(eventually([&] { return this->logged() >= 2; }));
  EXPECT_EQ(this->snapshot(), (std::vector<std::string>{"t5", "t20"}));
  EXPECT_EQ(loop.timers_fired() - fired_before, 2u);
}

TYPED_TEST(EventLoopContract, WorkDeferredByHandlerRunsBeforeNextMessage) {
  EventLoop& loop = this->pair.loop(0);
  this->on_message = [&](const std::string& s) {
    if (s != "first") return;
    loop.post([&] { this->record("task"); });
    // A zero-delay timer is how engine::Host::defer() schedules work.
    loop.arm_timer(EventLoop::now(), [&] { this->record("deferred"); });
  };
  // Hold the receiving loop so both messages are queued (in memory, or
  // in the socket buffer) before the first one is handled.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  loop.post([&entered, gate] {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();
  this->pair.send(1, 0, "first");
  this->pair.send(1, 0, "second");
  std::this_thread::sleep_for(20ms);
  release.set_value();

  ASSERT_TRUE(eventually([&] { return this->logged() >= 4; }));
  EXPECT_EQ(this->snapshot(),
            (std::vector<std::string>{"m:first", "task", "deferred",
                                      "m:second"}));
}

TYPED_TEST(EventLoopContract, CrossThreadPostKeepsFifoOrder) {
  EventLoop& loop = this->pair.loop(0);
  constexpr int kTasks = 1000;
  std::vector<int> order;  // loop thread only until the count is reached
  std::atomic<int> ran{0};
  std::thread producer([&] {
    for (int i = 0; i < kTasks; ++i) {
      loop.post([&, i] {
        order.push_back(i);
        ran.fetch_add(1);
      });
    }
  });
  producer.join();
  ASSERT_TRUE(eventually([&] { return ran.load() == kTasks; }));
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(order[i], i);
}

TYPED_TEST(EventLoopContract, DestroyedTimerWheelNeverFires) {
  // An engine's TimerWheel arms one loop timer that captures only the
  // wheel; destroying the wheel (a node swapped out on crash-restart)
  // must cancel it, or it fires into freed memory.
  EventLoop& loop = this->pair.loop(0);
  engine::LoopHost host(loop);
  loop.post([&] {
    auto wheel = std::make_unique<engine::TimerWheel>(host);
    wheel->schedule_after(5'000, [&] { this->record("wheel"); });
    wheel.reset();
    loop.arm_timer(EventLoop::now() + 20'000, [&] { this->record("after"); });
  });
  ASSERT_TRUE(eventually([&] { return this->logged() >= 1; }));
  EXPECT_EQ(this->snapshot(), (std::vector<std::string>{"after"}));
  this->pair.stop();  // before `host` goes out of scope
}

TYPED_TEST(EventLoopContract, ArmingAfterStopIsLegal) {
  EventLoop& loop = this->pair.loop(0);
  std::atomic<bool> ran{false};
  loop.post([&] { ran.store(true); });
  ASSERT_TRUE(eventually([&] { return ran.load(); }));
  this->pair.stop();
  // The loop thread is joined: ownership returned to this thread.
  EXPECT_TRUE(loop.affinity_ok());
  auto key = loop.arm_timer(EventLoop::now() + 1'000, [] {});
  loop.cancel_timer(key);
  loop.arm_timer(EventLoop::now(), [] {});
  loop.post([] {});
}

#if FASTBFT_ENFORCE_INVARIANTS

template <typename Pair>
class EventLoopDeathTest : public EventLoopContract<Pair> {};
TYPED_TEST_SUITE(EventLoopDeathTest, Backends);

TYPED_TEST(EventLoopDeathTest, ArmingFromAForeignThreadAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EventLoop& loop = this->pair.loop(0);
  std::atomic<bool> ran{false};
  loop.post([&] { ran.store(true); });
  ASSERT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_FALSE(loop.affinity_ok());
  EXPECT_DEATH(loop.arm_timer(EventLoop::now() + 1'000'000, [] {}),
               "timers are same-thread only");
}

#endif  // FASTBFT_ENFORCE_INVARIANTS

// --- In-memory backend only ---------------------------------------------------

TEST(InMemoryEventLoop, DisconnectDropsQueueAndTimersButRunsTasks) {
  ThreadedNetwork net(2, ThreadedNetworkConfig{50ms});
  std::atomic<int> received{0};
  net.attach(0, [](ProcessId, const Bytes&) {});
  net.attach(1, [&](ProcessId, const Bytes&) { received.fetch_add(1); });
  net.start();
  EventLoop& loop = net.loop(1);

  std::atomic<bool> timer_fired{false};
  std::atomic<bool> armed{false};
  loop.post([&] {
    loop.arm_timer(EventLoop::now() + 30'000, [&] { timer_fired = true; });
    armed = true;
  });
  ASSERT_TRUE(eventually([&] { return armed.load(); }));
  // Queued behind the 50 ms link delay when the crash hits.
  for (int i = 0; i < 5; ++i) net.send(0, 1, bytes_of("pre-crash"));
  net.disconnect(1);

  std::atomic<bool> task_ran{false};
  loop.post([&] { task_ran = true; });
  ASSERT_TRUE(eventually([&] { return task_ran.load(); }));
  net.send(0, 1, bytes_of("while-down"));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(received.load(), 0);
  EXPECT_FALSE(timer_fired.load());

  net.reconnect(1);
  net.send(0, 1, bytes_of("after-rejoin"));
  ASSERT_TRUE(eventually([&] { return received.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(received.load(), 1);
  net.stop();
}

}  // namespace
}  // namespace fastbft::net
