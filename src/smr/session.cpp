#include "smr/session.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/tags.hpp"
#include "smr/smr_node.hpp"

namespace fastbft::smr {

ClientSession::ClientSession(engine::Host& host,
                             std::unique_ptr<net::Transport> endpoint,
                             SessionConfig config)
    : host_(host),
      endpoint_(std::move(endpoint)),
      config_(std::move(config)),
      verifier_(config_.keys) {
  FASTBFT_ASSERT(config_.n > 0, "session needs the cluster size");
  FASTBFT_ASSERT(config_.max_in_flight >= 1, "window must admit a request");
  FASTBFT_ASSERT(endpoint_->self() >= config_.n,
                 "sessions live on client endpoints, not replica ids");
  FASTBFT_ASSERT(endpoint_->cluster_size() == config_.n,
                 "a session's broadcast must cover exactly the replicas");
}

ClientSession::~ClientSession() { *alive_ = false; }

Future<Reply> ClientSession::put(std::string key, std::string value) {
  return submit(Command::put(std::move(key), std::move(value)));
}

Future<Reply> ClientSession::get(std::string key) {
  return submit(Command::get(std::move(key)));
}

Future<Reply> ClientSession::del(std::string key) {
  return submit(Command::del(std::move(key)));
}

Future<Reply> ClientSession::cas(std::string key, std::string expected,
                                 std::string value) {
  return submit(Command::cas(std::move(key), std::move(expected),
                             std::move(value)));
}

Future<std::vector<Reply>> ClientSession::mget(
    std::vector<std::string> keys) {
  // Client-side fan-out: one independent single-key read per key, each
  // ordered by its key's own shard; the aggregate completes when the last
  // one does. Per-read linearizability only — no cross-shard snapshot.
  struct FanOut {
    std::mutex mutex;
    std::vector<Reply> replies;
    std::size_t remaining = 0;
    Promise<std::vector<Reply>> promise;
  };
  auto fan = std::make_shared<FanOut>();
  fan->replies.resize(keys.size());
  fan->remaining = keys.size();
  Future<std::vector<Reply>> future = fan->promise.future();
  if (keys.empty()) {
    fan->promise.set({});
    return future;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    get(keys[i]).on_ready([fan, i](const Reply& reply) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(fan->mutex);
        fan->replies[i] = reply;
        last = (--fan->remaining == 0);
      }
      if (last) fan->promise.set(std::move(fan->replies));
    });
  }
  return future;
}

Future<Reply> ClientSession::submit(Command cmd) {
  Promise<Reply> promise;
  Future<Reply> future = promise.future();
  cmd.client_id = id();
  // Sequence assignment, windowing and sending all happen on the host
  // thread: ops are safe to call from any thread, and the session state
  // stays single-threaded.
  host_.post([this, alive = alive_, cmd = std::move(cmd),
              promise = std::move(promise)]() mutable {
    if (!*alive) return;
    std::uint64_t sequence = next_sequence_++;
    cmd.sequence = sequence;
    Request& request = requests_[sequence];
    request.cmd = std::move(cmd);
    request.promise = std::move(promise);
    // The deadline budget starts at submission, not first dispatch: time
    // spent queued behind the window counts against the request too.
    if (config_.request_deadline > 0) {
      request.deadline = host_.now() + config_.request_deadline;
    }
    admit(sequence);
  });
  return future;
}

void ClientSession::admit(std::uint64_t sequence) {
  if (in_flight_.size() >= config_.max_in_flight) {
    waiting_.push_back(sequence);
    queued_gauge_.store(waiting_.size());
    return;
  }
  in_flight_.insert(sequence);
  in_flight_gauge_.store(in_flight_.size());
  dispatch(requests_.at(sequence));
}

void ClientSession::dispatch(Request& request) {
  // Straight to every replica, one shared payload: whichever replica
  // leads the slot proposes it without a relay hop, and no crashed
  // replica can black-hole the request.
  endpoint_->broadcast(SmrNode::encode_request(request.cmd));
  std::uint64_t sequence = request.cmd.sequence;
  // The retry timer never overshoots the deadline: the final arm fires
  // exactly when the budget runs out, so a Timeout verdict is never late
  // by up to a full retry period.
  Duration wait = config_.request_timeout;
  if (request.deadline != 0) {
    wait = std::min(wait, std::max<Duration>(1, request.deadline -
                                                    host_.now()));
  }
  request.timer =
      host_.schedule_after(wait, [this, alive = alive_, sequence] {
        if (*alive) on_timeout(sequence);
      });
}

void ClientSession::on_timeout(std::uint64_t sequence) {
  auto it = requests_.find(sequence);
  if (it == requests_.end()) return;  // completed; stale timer
  Request& request = it->second;
  if (request.deadline != 0 && host_.now() >= request.deadline) {
    // Budget exhausted — likely a whole shard quorum down, which no
    // amount of retrying cures. Fail cleanly instead of retrying forever;
    // the command may still execute later (at-most-once holds).
    fail_with_timeout(sequence);
    return;
  }
  // The quorum did not arrive in time: a lossy link dropped the request
  // or its replies, or the decision is slow (a view change). Re-send the
  // IDENTICAL command to every replica — (client_id, sequence) dedup at
  // apply time makes the retry at-most-once, and any reply quorum (from
  // either copy) completes the request.
  failovers_.fetch_add(1);
  dispatch(request);
}

void ClientSession::fail_with_timeout(std::uint64_t sequence) {
  auto it = requests_.find(sequence);
  if (it == requests_.end()) return;
  Request& request = it->second;
  Reply verdict;
  verdict.client_id = id();
  verdict.sequence = sequence;
  verdict.op = request.cmd.kind;
  verdict.result.ok = false;
  verdict.status = Reply::Status::Timeout;
  Promise<Reply> promise = std::move(request.promise);
  request.timer.cancel();
  requests_.erase(it);
  in_flight_.erase(sequence);
  in_flight_gauge_.store(in_flight_.size());
  deadline_timeouts_.fetch_add(1);
  refill_window();
  // Complete LAST, like handle_reply: the future callback may re-enter.
  promise.set(std::move(verdict));
}

void ClientSession::on_message(ProcessId from, const Bytes& payload) {
  if (payload.empty() || payload[0] != net::tags::kSmrReply) return;
  if (from >= config_.n) return;  // replies come from replicas only
  auto reply = decode_reply_payload(payload, from, verifier_);
  if (!reply || reply->client_id != id()) {
    rejected_.fetch_add(1);  // malformed, forged or misaddressed
    return;
  }
  handle_reply(from, *reply);
}

void ClientSession::handle_reply(ProcessId from, const Reply& reply) {
  auto it = requests_.find(reply.sequence);
  if (it == requests_.end()) {
    rejected_.fetch_add(1);  // unknown or already-completed sequence
    return;
  }
  Request& request = it->second;
  if (reply.op != request.cmd.kind) {
    rejected_.fetch_add(1);  // a lying replica echoed the wrong op
    return;
  }
  auto key = std::make_pair(reply.slot, reply.match_digest());
  // One live vote per replica: a correct replica sends exactly one reply
  // per request, so a SECOND, different reply from the same sender is
  // Byzantine by construction — replace its earlier vote instead of
  // accumulating, which bounds per-request reply state by n even against
  // a replica streaming fabricated results.
  auto voted = request.voted.find(from);
  if (voted != request.voted.end()) {
    if (voted->second == key) return;  // duplicate of its recorded vote
    auto old_votes = request.votes.find(voted->second);
    old_votes->second.erase(from);
    if (old_votes->second.empty()) {
      request.votes.erase(old_votes);
      request.candidates.erase(voted->second);
    }
  }
  request.voted[from] = key;
  request.candidates.emplace(key, reply);
  auto& voters = request.votes[key];
  voters.insert(from);
  std::uint32_t quorum =
      config_.unsafe_first_reply_quorum ? 1 : config_.f + 1;
  if (voters.size() < quorum) return;

  // f + 1 distinct replicas vouch for this (slot, result): at least one
  // is correct, so the command was decided at that slot and executed with
  // exactly this result. Complete and free the window slot.
  Reply verdict = request.candidates.at(key);
  Promise<Reply> promise = std::move(request.promise);
  request.timer.cancel();
  std::uint64_t sequence = reply.sequence;
  requests_.erase(it);
  in_flight_.erase(sequence);
  in_flight_gauge_.store(in_flight_.size());
  completed_.fetch_add(1);
  refill_window();
  // Complete LAST: future callbacks run caller code that may re-enter the
  // session (a closed-loop client submitting its next request).
  promise.set(std::move(verdict));
}

void ClientSession::refill_window() {
  while (!waiting_.empty() && in_flight_.size() < config_.max_in_flight) {
    std::uint64_t sequence = waiting_.front();
    waiting_.pop_front();
    in_flight_.insert(sequence);
    dispatch(requests_.at(sequence));
  }
  queued_gauge_.store(waiting_.size());
  in_flight_gauge_.store(in_flight_.size());
}

}  // namespace fastbft::smr
