#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/host.hpp"
#include "net/transport.hpp"
#include "smr/future.hpp"
#include "smr/reply.hpp"

/// \file session.hpp
/// Client session for the replicated KV service: the host-agnostic half of
/// the smr::Service facade. One session = one client identity (its network
/// endpoint id doubles as the Command::client_id), a bounded window of
/// in-flight requests, and the full request lifecycle:
///
///  * submit — a typed op (put/get/del/cas) becomes a Command with the
///    session's next sequence number and is broadcast as one shared
///    SMR_REQUEST payload to all n replicas; each admits it into the
///    key's owning group. The caller gets a Future<Reply>.
///  * complete — replicas answer with signed SMR_REPLYs carrying the
///    execution result; the session counts distinct, signature-verified
///    replicas agreeing on the same (slot, result) and completes the
///    future at f + 1 (at least one of them is correct — the PBFT client
///    rule), making every result, reads included, Byzantine-verified.
///  * retry — a per-request timer re-sends the identical request to every
///    replica if the quorum does not arrive in time (lost request, slow
///    decision, view change). Replicas dedup by (client_id, sequence) at
///    apply time, so retries are at-most-once by construction; the reply
///    quorum of whichever copy executed completes the request.
///  * backpressure — at most `max_in_flight` requests are outstanding;
///    further submissions queue inside the session and dispatch as
///    completions free the window.
///
/// Threading: the session lives on its Host's logical thread (the cluster
/// scheduler on the simulator, the client endpoint's delivery thread on
/// the threaded runtime). The typed ops are callable from any thread —
/// they post to the host — and the returned futures are thread-safe; all
/// other methods run on the host thread (on_message is invoked by the
/// network, stats reads are atomic).

namespace fastbft::smr {

struct SessionConfig {
  /// Requests go to all n replicas; the reply quorum is f + 1.
  std::uint32_t n = 0;
  std::uint32_t f = 0;

  /// Per-request completion timeout in host ticks (simulator ticks / µs
  /// on the threaded host); on expiry the request is re-sent to every
  /// replica and the timer re-arms. Retries continue until completion —
  /// the driver bounds the wait, the protocol guarantees at-most-once.
  Duration request_timeout = 4000;

  /// Total per-request budget in host ticks (0 = unlimited). A request
  /// still unresolved when the budget expires completes its future with
  /// Reply::Status::Timeout instead of retrying forever — the clean
  /// failure mode when a whole shard's quorum is down. The command may
  /// still execute later; at-most-once dedup still holds.
  Duration request_deadline = 0;

  /// Submission window: requests outstanding at once before the session
  /// queues internally. >= 1.
  std::uint32_t max_in_flight = 8;

  /// TEST HOOK — breaks Byzantine fault tolerance on purpose. Completes a
  /// request on the FIRST signature-valid reply instead of f + 1 matching
  /// ones, so a single lying replica can forge results. Exists so the
  /// chaos harness can prove its linearizability checker catches real
  /// safety violations (see docs/CHAOS.md). Never enable outside tests.
  bool unsafe_first_reply_quorum = false;

  /// Cluster key material for verifying reply signatures.
  std::shared_ptr<const crypto::KeyStore> keys;
};

class ClientSession {
 public:
  /// `endpoint` is the session's own client endpoint (its self() id is
  /// the client identity); `host` must outlive the session and run the
  /// endpoint's deliveries.
  ClientSession(engine::Host& host, std::unique_ptr<net::Transport> endpoint,
                SessionConfig config);
  ~ClientSession();

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// The client identity: endpoint id == Command::client_id.
  ProcessId id() const { return endpoint_->self(); }

  // --- Typed operations (thread-safe, complete via Future) ------------------

  Future<Reply> put(std::string key, std::string value);
  Future<Reply> get(std::string key);
  Future<Reply> del(std::string key);

  /// Compare-and-swap: installs `value` iff the key currently holds
  /// `expected`; Reply::result.ok reports the outcome.
  Future<Reply> cas(std::string key, std::string expected, std::string value);

  /// Multi-key read: fans out one get() per key (each ordered by its
  /// key's own shard) and completes when ALL have. Replies arrive in `keys` order.
  /// Each read is individually linearizable within its shard; the batch
  /// as a whole is NOT a cross-shard snapshot (docs/SHARDING.md).
  Future<std::vector<Reply>> mget(std::vector<std::string> keys);

  /// Network entry point; attach as the client endpoint's receive handler.
  void on_message(ProcessId from, const Bytes& payload);

  // --- Stats (thread-safe) ---------------------------------------------------

  std::uint64_t completed() const { return completed_.load(); }

  /// Timeouts fired: every one re-sent its request to every replica.
  std::uint64_t failovers() const { return failovers_.load(); }

  /// Requests that exhausted their deadline budget and completed with
  /// Reply::Status::Timeout.
  std::uint64_t deadline_timeouts() const {
    return deadline_timeouts_.load();
  }

  /// Replies dropped for bad signatures / malformed payloads / unknown
  /// sequences (late duplicates land here too).
  std::uint64_t rejected_replies() const { return rejected_.load(); }

  std::uint64_t in_flight() const { return in_flight_gauge_.load(); }
  std::uint64_t queued() const { return queued_gauge_.load(); }

 private:
  struct Request {
    Command cmd;
    Promise<Reply> promise;
    sim::TimerHandle timer;
    /// Absolute host-clock give-up point (0 = no deadline).
    TimePoint deadline = 0;
    /// (slot, result digest) -> distinct signed voters, plus the reply
    /// that will resolve the future when its key crosses f + 1. Each
    /// replica funds at most ONE live vote (a later, different reply
    /// replaces its earlier one), so this state is bounded by n no
    /// matter how many fabricated results a Byzantine replica streams.
    std::map<std::pair<Slot, crypto::Digest>, std::set<ProcessId>> votes;
    std::map<std::pair<Slot, crypto::Digest>, Reply> candidates;
    std::map<ProcessId, std::pair<Slot, crypto::Digest>> voted;
  };

  Future<Reply> submit(Command cmd);
  void admit(std::uint64_t sequence);    // dispatch or queue (host thread)
  void dispatch(Request& request);       // send + arm timer (host thread)
  void on_timeout(std::uint64_t sequence);
  void fail_with_timeout(std::uint64_t sequence);  // deadline exhausted
  void handle_reply(ProcessId from, const Reply& reply);
  void refill_window();

  engine::Host& host_;
  std::unique_ptr<net::Transport> endpoint_;
  SessionConfig config_;
  crypto::Verifier verifier_;

  std::uint64_t next_sequence_ = 1;
  std::map<std::uint64_t, Request> requests_;  // sequence -> state
  std::deque<std::uint64_t> waiting_;          // beyond-window queue
  std::set<std::uint64_t> in_flight_;          // dispatched sequences

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> deadline_timeouts_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> in_flight_gauge_{0};
  std::atomic<std::uint64_t> queued_gauge_{0};

  /// Guards timer closures that outlive the session.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace fastbft::smr
