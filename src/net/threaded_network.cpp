#include "net/threaded_network.hpp"

#include "common/assert.hpp"

namespace fastbft::net {

void ThreadedEndpoint::send(ProcessId to, SharedBytes payload) {
  net_.send(self_, to, std::move(payload));
}

std::uint32_t ThreadedEndpoint::cluster_size() const { return net_.size(); }

ThreadedNetwork::ThreadedNetwork(std::uint32_t n,
                                 ThreadedNetworkConfig config,
                                 std::uint32_t extra_endpoints)
    : n_(n), config_(config), handlers_(n + extra_endpoints) {
  for (ProcessId id = 0; id < n + extra_endpoints; ++id) {
    inboxes_.push_back(std::make_unique<Inbox>(*this, id));
  }
}

ThreadedNetwork::~ThreadedNetwork() { stop(); }

void ThreadedNetwork::attach(ProcessId id, ReceiveHandler handler) {
  FASTBFT_ASSERT(id < total_size(), "attach: id out of range");
  FASTBFT_ASSERT(!started_, "attach before start()");
  handlers_[id] = std::move(handler);
}

std::unique_ptr<ThreadedEndpoint> ThreadedNetwork::endpoint(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "endpoint: id out of range");
  return std::make_unique<ThreadedEndpoint>(*this, id);
}

void ThreadedNetwork::start() {
  FASTBFT_ASSERT(!started_, "already started");
  for (ProcessId id = 0; id < total_size(); ++id) {
    FASTBFT_ASSERT(static_cast<bool>(handlers_[id]),
                   "every process needs a handler before start()");
  }
  started_ = true;
  for (auto& inbox : inboxes_) inbox->loop.start();
}

void ThreadedNetwork::stop() {
  stopping_.store(true);
  for (auto& inbox : inboxes_) inbox->loop.stop();
}

void ThreadedNetwork::disconnect(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "disconnect: id out of range");
  Inbox& inbox = *inboxes_[id];
  {
    // Drop undelivered traffic NOW: a rejoin task posted right after
    // this call must not find pre-crash envelopes to hand to the fresh
    // incarnation.
    std::lock_guard<std::mutex> lock(inbox.mutex);
    inbox.disconnected.store(true);
    inbox.queue.clear();
  }
  // Timers are loop-thread state, so the loop drops them itself — ahead
  // of any task posted later, such as a rejoin arming fresh ones.
  inbox.loop.post([&loop = inbox.loop] { loop.clear_timers(); });
}

void ThreadedNetwork::reconnect(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "reconnect: id out of range");
  inboxes_[id]->disconnected.store(false);
}

void ThreadedNetwork::send(ProcessId from, ProcessId to, SharedBytes payload) {
  FASTBFT_ASSERT(from < total_size() && to < total_size(),
                 "send: id out of range");
  if (stopping_.load()) return;
  Inbox& inbox = *inboxes_[to];
  if (inboxes_[from]->disconnected.load() || inbox.disconnected.load()) {
    return;
  }
  TimePoint at = EventLoop::now();
  if (from != to) at += config_.link_delay.count();
  {
    std::lock_guard<std::mutex> lock(inbox.mutex);
    // Re-check under the inbox lock: disconnect() clears the queue under
    // this same lock, so without the re-check a send that passed the
    // unlocked test above could enqueue AFTER the clear and hand a
    // pre-crash envelope to a rejoined fresh incarnation.
    if (inbox.disconnected.load()) return;
    auto key = std::make_pair(at, inbox.next_env_seq++);
    if (!inbox.spare_nodes.empty()) {
      // Recycle a retired queue node instead of allocating a fresh one.
      auto node = std::move(inbox.spare_nodes.back());
      inbox.spare_nodes.pop_back();
      node.key() = key;
      node.mapped() = Envelope{from, to, std::move(payload)};
      inbox.queue.insert(std::move(node));
      PayloadStats::record_envelope_reuse();
    } else {
      inbox.queue.emplace(key, Envelope{from, to, std::move(payload)});
      PayloadStats::record_envelope_alloc();
    }
  }
  inbox.loop.notify();
}

void ThreadedNetwork::Inbox::service(TimePoint now) {
  while (!net.stopping_.load(std::memory_order_relaxed)) {
    Envelope env;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (queue.empty() || queue.begin()->first.first > now) return;
      auto node = queue.extract(queue.begin());
      env = std::move(node.mapped());
      if (spare_nodes.size() < kSpareNodeCap) {
        // Pool the node for the next send; clear the moved-from envelope
        // so no payload reference lingers in the pool.
        node.mapped() = Envelope{};
        spare_nodes.push_back(std::move(node));
      }
    }
    net.delivered_.fetch_add(1);
    net.handlers_[id](env.from, env.payload);
    loop.run_due();
  }
}

TimePoint ThreadedNetwork::Inbox::next_deadline(TimePoint /*now*/) {
  std::lock_guard<std::mutex> lock(mutex);
  return queue.empty() ? kTimeInfinity : queue.begin()->first.first;
}

}  // namespace fastbft::net
