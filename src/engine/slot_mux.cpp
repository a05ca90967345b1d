#include "engine/slot_mux.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/tags.hpp"

namespace fastbft::engine {

namespace {

/// An already-encoded inner message (a synchronizer WISH, a CertReq sent
/// to several peers) as a MessageRef.
struct EncodedInner {
  ByteView bytes;
  void encode(Encoder& enc) const { enc.raw(bytes); }
};

/// Leader of view `v` in the round-robin order that starts at `first`.
ProcessId shifted_leader(ProcessId first, View v, std::uint32_t n) {
  return static_cast<ProcessId>((first + (v - 1) % n) % n);
}

}  // namespace

void SlotMux::SlotChannel::send(ProcessId to, SharedBytes payload) {
  mux_.transport_.send(to, mux_.wrap(slot_, EncodedInner{payload}));
}

void SlotMux::SlotChannel::broadcast(SharedBytes payload) {
  mux_.broadcast_wrapped(slot_, EncodedInner{payload}, /*include_self=*/true);
}

void SlotMux::SlotChannel::broadcast_others(SharedBytes payload) {
  mux_.broadcast_wrapped(slot_, EncodedInner{payload},
                         /*include_self=*/false);
}

void SlotMux::SlotChannel::send_message(ProcessId to, net::MessageRef msg) {
  mux_.transport_.send(to, mux_.wrap(slot_, msg));
}

void SlotMux::SlotChannel::broadcast_message(net::MessageRef msg) {
  mux_.broadcast_wrapped(slot_, msg, /*include_self=*/true);
}

std::uint32_t SlotMux::SlotChannel::cluster_size() const {
  return mux_.transport_.cluster_size();
}

ProcessId SlotMux::SlotChannel::self() const {
  return mux_.transport_.self();
}

SlotMux::SlotMux(Host& host, EngineContext ctx, net::Transport& transport,
                 SlotMuxOptions options, ApplyFn apply, SnapshotHooks hooks)
    : host_(host),
      ctx_(std::move(ctx)),
      transport_(transport),
      options_(std::move(options)),
      apply_(std::move(apply)),
      hooks_(std::move(hooks)),
      timers_(host_),
      catchup_(ctx_.cfg.f + 1, ctx_.cfg.n, options_.snapshot_chunk_bytes,
               ctx_.group) {
  FASTBFT_ASSERT(options_.pipeline_depth >= 1, "pipeline depth must be >= 1");
  noop_batches_.resize(ctx_.cfg.n);
  // The leader schedule trusts decided authors (view1_leader), so a
  // replica acks or certifies a leader's own batch only if it names that
  // leader.
  options_.replica.valid_value = smr::authored_by;
  if (!ctx_.verify_cache) {
    ctx_.verify_cache = std::make_shared<crypto::VerificationCache>();
  }
  authors_.resize(max_window_depth());
  suspected_.resize(ctx_.cfg.n);
}

SlotMux::~SlotMux() { *alive_ = false; }

void SlotMux::defer_guarded(std::function<void()> fn) {
  host_.defer([alive = alive_, fn = std::move(fn)] {
    if (*alive) fn();
  });
}

void SlotMux::start() { fill_window(); }

bool SlotMux::submit(smr::Command cmd) {
  if (!pending_.admit(std::move(cmd))) return false;
  fill_window();
  note_inflight();
  return true;
}

Bytes SlotMux::wrap(Slot slot, net::MessageRef inner) const {
  // `group` sits right after the tag at a fixed offset so a sharded node
  // can route the payload to the owning engine without decoding the rest;
  // `watermark` gossips our applied watermark (lowest unapplied slot) on
  // every wrapped message, so peers can trim decided-value retention below
  // the cluster-wide minimum; the snapshot floor gossips our latest
  // snapshot boundary, so a peer whose apply cursor sits below it knows
  // its missing slots may be pruned and full-state transfer is the way
  // back. The inner message is encoded in place after the header, and the
  // frame leaves the pooled scratch buffer in one exact-size copy.
  Encoder enc = Encoder::scratch();
  enc.u8(net::tags::kSmrWrapped);
  enc.u32(ctx_.group);
  enc.u64(slot);
  enc.u64(next_apply_);
  enc.u64(catchup_.snapshot_floor());
  std::size_t start = enc.begin_field();
  inner.encode(enc);
  enc.end_field(start);
  return enc.view().to_bytes();
}

void SlotMux::broadcast_wrapped(Slot slot, net::MessageRef inner,
                                bool include_self) {
  // One wrap per broadcast: the framed buffer is shared by every
  // recipient's envelope instead of re-encoded n times.
  SharedBytes wrapped = wrap(slot, inner);
  PayloadStats::record_group_broadcast(ctx_.group);
  if (include_self) {
    transport_.broadcast(std::move(wrapped));
  } else {
    transport_.broadcast_others(std::move(wrapped));
  }
}

void SlotMux::fill_window() {
  // Within the window, the next slot opens
  //  (a) for a command waiting unclaimed, if this replica leads the slot
  //      or no open slot still waits for its leader's proposal: the
  //      leader proposes in slot order, so that slot already probes it,
  //      and the command may ride it;
  //  (b) in eager mode, as the one keep-alive slot while none is open; its
  //      leader holds it for half a view timeout, so a command arriving
  //      meanwhile rides it instead of a noop, and followers open it at
  //      once, so their view timer still probes the leader;
  //  (c) when its view-1 leader is suspected, so a dead leader's chain
  //      changes view in one round instead of one slot per request.
  while (next_start_ < next_apply_ + max_window_depth()) {
    const ProcessId leader = view1_leader(next_start_);
    bool open = suspected_[leader] ||
                (pending_.has_unclaimed() &&
                 (leader == ctx_.id || !awaiting_proposal(leader)));
    if (!open && options_.eager_windows && active_.empty()) {
      open = leader != ctx_.id || hold_released_ == next_start_;
      if (!open && hold_armed_ != next_start_) {
        hold_armed_ = next_start_;
        timers_.schedule_after(options_.sync.base_timeout / 2,
                               [this, slot = next_start_] {
                                 hold_released_ = slot;
                                 fill_window();
                                 note_inflight();
                               });
      }
    }
    if (!open) break;
    if (options_.max_reorder_backlog > 0 &&
        reorder_.size() > options_.max_reorder_backlog) {
      // Congestion clamp: decisions are piling up behind a stalled slot;
      // opening more slots would only deepen the backlog. The window
      // refills when the stall resolves (drain_apply + fill_window).
      FASTBFT_DASSERT(host_.affinity_ok(),
                      "engine stats are single-writer (host thread)");
      clamp_stalls_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    start_slot(next_start_++);
  }
}

void SlotMux::park_wrapped(Slot slot, ProcessId from, ByteView payload) {
  // Anything past twice the maximum window cannot be honest skew — a
  // correct peer's frontier is at most one window past ours once its
  // watermark (our floor gossip) catches up — so treat it as flooding.
  if (slot >= next_apply_ + 2 * static_cast<Slot>(max_window_depth())) return;
  auto& entries = parked_[slot];
  // A correct peer contributes a handful of messages per slot (propose,
  // ack, signed ack, commit, wishes); 6n entries cover every peer with
  // margin, and the cap keeps a Byzantine sender from ballooning the
  // park. Together with the horizon above this bounds parked memory at
  // max_window_depth slots of 6n frames each.
  if (entries.size() >= static_cast<std::size_t>(6) * ctx_.cfg.n) return;
  entries.emplace_back(from, Bytes(payload.begin(), payload.end()));
  std::size_t total = 0;
  for (const auto& [s, msgs] : parked_) total += msgs.size();
  if (total > parked_high_water_.load(std::memory_order_relaxed)) {
    FASTBFT_DASSERT(host_.affinity_ok(),
                    "engine stats are single-writer (host thread)");
    parked_high_water_.store(total, std::memory_order_relaxed);
  }
}

void SlotMux::replay_parked() {
  if (replaying_parked_) return;  // a replayed decision re-enters via
                                  // on_slot_decided; the outer loop
                                  // re-checks the frontier itself
  replaying_parked_ = true;
  while (!parked_.empty() &&
         parked_.begin()->first < next_apply_ + max_window_depth()) {
    auto node = parked_.extract(parked_.begin());
    for (auto& [from, payload] : node.mapped()) on_wrapped(from, payload);
  }
  replaying_parked_ = false;
}

const Value& SlotMux::noop_batch(ProcessId author) {
  Value& batch = noop_batches_[author];
  if (batch.empty()) batch = smr::encode_batch({smr::Command::noop()}, author);
  return batch;
}

Value SlotMux::make_input(Slot slot) {
  std::vector<const smr::Command*> batch =
      pending_.claim(slot, options_.max_batch);
  if (batch.empty()) return noop_batch(ctx_.id);
  return smr::encode_batch(batch, ctx_.id);
}

ProcessId SlotMux::view1_leader(Slot slot) const {
  // Every correct replica opens slot s only after applying slot s - D
  // (fill_window and the on_wrapped join stop below next_apply_ + D), and
  // a snapshot install carries the last D authors, so all of them read
  // the same decided author here.
  const Slot depth = authors_.size();
  const std::uint32_t n = ctx_.cfg.n;
  if (slot <= depth) {
    return options_.rotate_leaders ? static_cast<ProcessId>((slot - 1) % n)
                                   : 0;
  }
  const ProcessId author = authors_[slot % depth];
  return static_cast<ProcessId>(
      (options_.rotate_leaders ? author + depth : author) % n);
}

consensus::LeaderFn SlotMux::leader_for(ProcessId first) const {
  // The round-robin leader shifted to start at `first`.
  return [n = ctx_.cfg.n, first](View v) {
    return shifted_leader(first, v, n);
  };
}

void SlotMux::enter_view(Instance& inst, View v) {
  const ProcessId replaced = current_leader(inst);
  inst.replica->enter_view(v);
  // A replaced leader that has sent nothing since is probably down (a
  // live one is heard again within a link delay, see on_wrapped). Slots
  // it leads wish now rather than each waiting out its own timer, and
  // the window opens the ones it would lead next (fill_window) once this
  // handler returns: a nested view entry may be iterating active_.
  if (replaced != ctx_.id && !suspected_[replaced]) {
    suspected_[replaced] = true;
    defer_guarded([this] {
      fill_window();
      note_inflight();
    });
  }
  for (auto& entry : active_) suspect_leader(*entry.second);
}

ProcessId SlotMux::current_leader(const Instance& inst) const {
  return shifted_leader(inst.leader, inst.replica->view(), ctx_.cfg.n);
}

bool SlotMux::voted_in_view(const Instance& inst) {
  const auto& vote = inst.replica->current_vote();
  return vote && vote->u == inst.replica->view();
}

bool SlotMux::awaiting_proposal(ProcessId leader) const {
  return std::any_of(active_.begin(), active_.end(),
                     [&](const ActiveSlot& entry) {
                       const Instance& inst = *entry.second;
                       return current_leader(inst) == leader &&
                              !voted_in_view(inst);
                     });
}

void SlotMux::suspect_leader(Instance& inst) {
  // A slot that acked its leader's proposal may decide from the acks;
  // wishing would only push it into another view.
  if (!suspected_[current_leader(inst)] || voted_in_view(inst)) return;
  if (inst.sync->suspect()) {
    FASTBFT_DASSERT(host_.affinity_ok(),
                    "engine stats are single-writer (host thread)");
    suspected_wishes_.store(suspected_wishes() + 1,
                            std::memory_order_relaxed);
  }
}

void SlotMux::start_slot(Slot slot) {
  FASTBFT_ASSERT(active_.empty() || active_.back().first < slot,
                 "slots open in increasing order");
  std::unique_ptr<Instance> node;
  if (spare_.empty()) {
    node = std::make_unique<Instance>(*this);
  } else {
    node = std::move(spare_.back());
    spare_.pop_back();
  }
  Instance& inst = *node;
  inst.channel.set_slot(slot);
  const ProcessId leader = inst.leader = view1_leader(slot);

  viewsync::SynchronizerConfig sync_cfg = options_.sync;
  sync_cfg.f = ctx_.cfg.f;

  auto on_decide = [this, slot](const consensus::DecisionRecord& record) {
    // Deciding happens inside the replica's message handler; defer the
    // teardown so we never destroy an executing replica. One closure,
    // guarded like defer_guarded's.
    host_.defer([this, alive = alive_, slot, value = record.value] {
      if (*alive) on_slot_decided(slot, value);
    });
  };

  consensus::Replica& replica = inst.replica.emplace(
      ctx_.cfg, ctx_.id, make_input(slot), inst.channel,
      crypto::Signer(ctx_.keys, ctx_.id),
      crypto::Verifier(ctx_.keys, ctx_.verify_cache), leader_for(leader),
      on_decide, options_.replica);
  // An idle replica expects an idle leader: its noop proposal then decodes
  // without allocating.
  if (leader != ctx_.id && replica.input() == noop_batches_[ctx_.id]) {
    replica.expect_value(noop_batch(leader));
  }
  viewsync::Synchronizer& sync = inst.sync.emplace(
      sync_cfg, ctx_.id, inst.channel, timers_,
      [this, &inst](View v) { enter_view(inst, v); });

  active_.emplace_back(slot, std::move(node));
  sync.start();
  replica.start();
  suspect_leader(inst);
  note_inflight();
  pull_decided();

  // A laggard may already hold f + 1 matching decided claims for this slot.
  if (auto claim = catchup_.ready_claim(slot)) {
    defer_guarded([this, slot, value = *claim] {
      on_slot_decided(slot, value);
    });
  }
}

std::vector<SlotMux::ActiveSlot>::iterator SlotMux::active_from(Slot slot) {
  return std::lower_bound(
      active_.begin(), active_.end(), slot,
      [](const ActiveSlot& a, Slot s) { return a.first < s; });
}

SlotMux::Instance* SlotMux::find_active(Slot slot) {
  auto it = active_from(slot);
  return it != active_.end() && it->first == slot ? it->second.get()
                                                  : nullptr;
}

std::vector<SlotMux::ActiveSlot>::iterator SlotMux::retire(
    std::vector<ActiveSlot>::iterator it) {
  Instance& inst = *it->second;
  inst.sync->stop();
  inst.sync.reset();
  inst.replica.reset();
  if (spare_.size() < max_window_depth()) {
    spare_.push_back(std::move(it->second));
  }
  return active_.erase(it);
}

void SlotMux::on_slot_decided(Slot slot, const Value& value) {
  auto it = active_from(slot);
  if (it == active_.end() || it->first != slot) {
    return;  // decision already processed
  }
  if (it->second->replica->view() > 1) {
    view_changed_slots_.store(view_changed_slots() + 1,
                              std::memory_order_relaxed);
  }
  retire(it);

  catchup_.record_decided(slot, value);
  reorder_.emplace(slot, value);
  if (reorder_.size() > reorder_high_water_.load(std::memory_order_relaxed)) {
    FASTBFT_DASSERT(host_.affinity_ok(),
                    "engine stats are single-writer (host thread)");
    reorder_high_water_.store(reorder_.size(), std::memory_order_relaxed);
  }

  drain_apply();
  fill_window();
  note_inflight();
  replay_parked();
}

void SlotMux::drain_apply() {
  for (const Value* value = reorder_.find(next_apply_); value != nullptr;
       value = reorder_.find(next_apply_)) {
    apply_value(next_apply_, *value);
    reorder_.erase(next_apply_);
    ++next_apply_;
    slots_applied_.store(slots_applied() + 1, std::memory_order_relaxed);
    maybe_take_snapshot(next_apply_ - 1);
  }
  apply_watermark_.store(next_apply_, std::memory_order_relaxed);
  // Our own watermark advanced; it participates in the prune floor exactly
  // like gossiped peer watermarks.
  catchup_.note_watermark(ctx_.id, next_apply_);
}

void SlotMux::maybe_take_snapshot(Slot just_applied) {
  if (options_.snapshot_interval == 0 || !hooks_.state) return;
  if (just_applied % options_.snapshot_interval != 0) return;

  // Bound the dedup set before exporting it. Honest duplicates of one
  // command land within the live window of each other (a second leader
  // can only claim a command it has not applied yet), so records older
  // than interval + window + backlog can only matter against deliberate
  // replay of ancient commands — and pruning is a deterministic function
  // of the slot boundary, so every replica re-applies such a replay
  // identically and replicas never diverge. This keeps snapshot size
  // proportional to the horizon's command volume, not cluster lifetime.
  Slot horizon = options_.snapshot_interval + max_window_depth() +
                 options_.max_reorder_backlog;
  Slot boundary = just_applied + 1;
  pending_.prune_applied_before(boundary > horizon ? boundary - horizon : 1);

  // Capture the boundary's metadata and a frozen state image now; the
  // canonical body is encoded (and hashed) only if a peer asks for it.
  smr::Snapshot snap;
  snap.applied_below = boundary;
  snap.applied_commands = applied_commands();
  snap.applied_ids = pending_.applied_ids();
  const Slot depth = authors_.size();
  for (Slot k = boundary > depth ? boundary - depth : 1; k < boundary; ++k) {
    snap.recent_authors.push_back(authors_[k % depth]);
  }
  catchup_.defer_snapshot(
      boundary, [snap = std::move(snap), image = hooks_.state()]() mutable {
        snap.kv_state = image();
        return snap.encode();
      });
  ++snapshots_taken_;
}

void SlotMux::apply_value(Slot slot, const Value& value) {
  std::vector<smr::Command> applied;
  auto author = smr::batch_author(value);
  if (!author || *author >= ctx_.cfg.n) author = view1_leader(slot);
  authors_[slot % authors_.size()] = *author;
  // A noop batch (usually the very buffer: proposals decode against the
  // leader's) applies nothing; skip its decode. An author's batch not
  // built here is empty and matches nothing.
  auto batch = value == noop_batches_[*author] ? std::nullopt
                                               : smr::decode_batch(value);
  if (batch) {
    for (auto& cmd : *batch) {
      if (cmd.kind == smr::OpKind::Noop) continue;
      if (!pending_.applied(cmd, slot)) continue;  // duplicate
      applied.push_back(std::move(cmd));
    }
  }
  // A decided value that is not a valid batch is treated as a no-op (can
  // only happen if a Byzantine leader proposed garbage — agreement still
  // holds, the state machine just skips it deterministically).
  if (applied.empty()) ++noop_slots_;
  applied_commands_.store(applied_commands() + applied.size(),
                          std::memory_order_relaxed);
  pending_.release(slot);
  if (apply_) apply_(slot, applied);
}

void SlotMux::on_wrapped(ProcessId from, ByteView payload) {
  Decoder dec(payload);
  dec.u8();
  GroupId group = dec.u32();
  Slot slot = dec.u64();
  Slot watermark = dec.u64();
  Slot snap_floor = dec.u64();
  ByteView inner = dec.bytes_view();  // aliases payload; no copy
  if (!dec.ok() || !dec.at_end() || slot == 0 || group != ctx_.group) return;
  if (from < suspected_.size()) suspected_[from] = false;

  if (catchup_.note_watermark(from, watermark)) pull_decided();

  // A sender whose snapshot floor passed our apply cursor may have pruned
  // slots we still need. Request full state immediately only when the
  // floor is beyond our whole live window — a smaller gap is usually
  // ordinary pipelining skew (we are about to decide those slots
  // ourselves), and requesting eagerly would ship the entire state n^2
  // times per interval in a healthy cluster. But "usually" is not
  // "always": a stalled laggard inside the window is just as stuck if the
  // cluster stops opening slots and no later boundary ever widens the
  // gap. So small gaps arm a one-shot probe instead; it fires after a
  // couple of view-change timeouts and requests only if the gap is still
  // there.
  catchup_.note_peer_snapshot_floor(from, snap_floor);
  if (snap_floor > next_apply_) {
    if (snap_floor > next_apply_ + max_window_depth()) {
      request_snapshots();
    } else {
      snap_probe_floor_ = std::max(snap_probe_floor_, snap_floor);
      if (!snap_probe_armed_) {
        snap_probe_armed_ = true;
        timers_.schedule_after(2 * options_.sync.base_timeout, [this] {
          snap_probe_armed_ = false;
          if (snap_probe_floor_ > next_apply_) request_snapshots();
        });
      }
    }
  }

  if (catchup_.decided(slot) != nullptr) {
    // Traffic for a slot we already decided MAY mark the sender as a
    // laggard: answer with the decided value (classic state transfer;
    // fast-path acks are not transferable proof). But only view-change
    // traffic — WISH or VOTE, both sent strictly after a timeout — proves
    // the sender is stuck. Acks/acksigs/commits for a freshly decided slot
    // are just the tail of a healthy race (the sender decides on its own
    // microseconds later), and replying to those used to ship the decided
    // value n x n times per slot in a perfectly healthy cluster (~15% of
    // all traffic in the depth-8 benchmark). Slots pruned below the
    // watermark floor no longer reach this branch — by the floor's
    // definition the sender already applied them.
    bool sender_stuck = !inner.empty() && (inner[0] == net::tags::kWish ||
                                           inner[0] == net::tags::kVote);
    if (sender_stuck) {
      // A wish names the view the sender is escalating to; passing it as
      // the reply epoch lets catch-up re-answer a peer whose earlier
      // SMR_DECIDED was lost on a lossy link (it keeps wishing higher).
      View epoch = 0;
      if (auto wish = viewsync::parse_wish(inner)) epoch = wish->w;
      if (auto reply = catchup_.reply_for(slot, from, epoch)) {
        transport_.send(from, std::move(*reply));
      }
    }
    return;
  }
  if (slot >= next_start_) {
    // A peer is already running a slot this replica has not opened: it
    // holds no command for it (fill_window opens a follower's slot for a
    // waiting command only), or, on a real network that keeps only
    // per-link FIFO order, the proposal overtook the acks that advance our
    // window. Dropping it would stall the slot until its view-change
    // timeout, so join every slot up to it within the window; traffic
    // past the window waits in parked_ until the window reaches it.
    if (slot >= next_apply_ + max_window_depth()) {
      park_wrapped(slot, from, payload);
      return;
    }
    while (next_start_ <= slot) start_slot(next_start_++);
    note_inflight();
  }
  Instance* inst = find_active(slot);
  if (inst == nullptr) return;
  if (!inner.empty() && inner[0] == net::tags::kWish) {
    inst->sync->on_message(from, inner);
  } else {
    inst->replica->on_message(from, inner);
  }
}

void SlotMux::on_decided_claim(ProcessId from, ByteView payload) {
  Decoder dec(payload);
  dec.u8();
  GroupId group = dec.u32();
  Slot slot = dec.u64();
  auto value = Value::decode(dec);
  if (!value || !dec.ok() || !dec.at_end() || slot == 0 ||
      group != ctx_.group) {
    return;
  }

  // Honest claims are solicited by our own slot traffic, which never goes
  // beyond the window; claims past it can only be Byzantine flooding, and
  // rejecting them keeps parked claim state bounded by the window size.
  if (slot >= next_start_ + max_window_depth()) return;

  auto adopted = catchup_.add_claim(slot, from, *value);
  if (adopted && find_active(slot) != nullptr) {
    on_slot_decided(slot, *adopted);
  }
  // Claims for slots we have not opened yet stay parked in the policy;
  // start_slot() checks ready_claim() when the window reaches them.
}

void SlotMux::pull_decided() {
  // A slot f + 1 peers already applied was decided, and at least one
  // correct peer among them can prove it; with the slow path off there is
  // no Commit stream to carry the decision to a replica that missed the
  // acks (it opened the slot late, or lost them). Ask those peers at once
  // rather than after a view-change timeout. Each slot is asked for once
  // (pull_next_); a lost reply falls back to the WISH path, which peers
  // answer the same way.
  Slot applied_below = catchup_.quorum_applied_below();
  if (pull_next_ >= applied_below) return;
  for (auto it = active_from(pull_next_);
       it != active_.end() && it->first < applied_below; ++it) {
    Slot slot = it->first;
    SharedBytes request = encode_decided_pull(ctx_.group, slot);
    for (ProcessId peer = 0; peer < ctx_.cfg.n; ++peer) {
      if (peer == ctx_.id || catchup_.watermark(peer) <= slot) continue;
      transport_.send(peer, request);
      FASTBFT_DASSERT(host_.affinity_ok(),
                      "engine stats are single-writer (host thread)");
      decided_pulls_.store(decided_pulls() + 1, std::memory_order_relaxed);
    }
  }
  // Every slot below both bounds is now pulled or decided; slots not yet
  // opened are checked again when start_slot opens them.
  pull_next_ = std::max(pull_next_, std::min(applied_below, next_start_));
}

void SlotMux::on_decided_pull(ProcessId from, ByteView payload) {
  auto slot = decode_decided_pull(payload, ctx_.group);
  if (!slot) return;
  if (auto reply = catchup_.reply_for(*slot, from)) {
    transport_.send(from, std::move(*reply));
  }
}

void SlotMux::request_snapshots() {
  // Ask EVERY peer that advertised a useful snapshot floor, not just the
  // message that tipped us off: installing needs f + 1 distinct senders'
  // chunks, and in an idle cluster there may never be another gossip
  // round to solicit the rest. Per-peer dedup keeps this to one request
  // per advertised floor; asking only advertisers keeps the dedup honest
  // (a peer is never marked requested for a snapshot it was not yet known
  // to hold).
  for (ProcessId peer = 0; peer < ctx_.cfg.n; ++peer) {
    if (peer == ctx_.id) continue;
    Slot floor = catchup_.peer_snapshot_floor(peer);
    if (floor <= next_apply_) continue;
    if (!catchup_.should_request_snapshot(peer, floor, next_apply_)) {
      continue;
    }
    Encoder req;
    req.u8(net::tags::kSmrSnapRequest);
    req.u32(ctx_.group);
    req.u64(next_apply_);
    transport_.send(peer, std::move(req).take());
  }
}

void SlotMux::on_snapshot_request(ProcessId from, ByteView payload) {
  Decoder dec(payload);
  dec.u8();
  GroupId group = dec.u32();
  Slot their_next_apply = dec.u64();
  if (!dec.ok() || !dec.at_end() || group != ctx_.group) return;
  // Serve only when our snapshot actually covers slots the requester is
  // missing; otherwise per-slot catch-up (or nothing) is the answer.
  if (catchup_.snapshot_floor() <= their_next_apply) return;
  for (auto& chunk : catchup_.snapshot_chunks()) {
    transport_.send(from, std::move(chunk));
  }
}

void SlotMux::on_snapshot_response(ProcessId from, ByteView payload) {
  Decoder dec(payload);
  dec.u8();
  GroupId group = dec.u32();
  Slot applied_below = dec.u64();
  ByteView digest_bytes = dec.bytes_view();
  std::uint32_t index = dec.u32();
  std::uint32_t count = dec.u32();
  Bytes chunk = dec.bytes();  // retained by the reassembly buffer
  if (!dec.ok() || !dec.at_end() || applied_below == 0 ||
      group != ctx_.group || digest_bytes.size() != crypto::kDigestSize) {
    return;
  }
  crypto::Digest digest;
  std::copy(digest_bytes.begin(), digest_bytes.end(), digest.begin());

  auto verified = catchup_.add_snapshot_chunk(from, applied_below, digest,
                                              index, count, std::move(chunk),
                                              next_apply_);
  if (verified) {
    install_snapshot(verified->snapshot, std::move(verified->body),
                     verified->digest);
  }
}

void SlotMux::install_snapshot(const smr::Snapshot& snap, Bytes body,
                               const crypto::Digest& digest) {
  if (snap.applied_below <= next_apply_) return;  // raced past it already
  // f + 1 vouchers make at least one snapshotter correct, so a list of
  // another length means replicas run different max_window_depth()s and
  // would derive different leaders: a deployment error, not a fault.
  FASTBFT_ASSERT(snap.recent_authors.size() ==
                     std::min<Slot>(authors_.size(), snap.applied_below - 1),
                 "max_window_depth differs between replicas");

  // Every slot below the snapshot boundary is superseded wholesale: tear
  // down its live consensus instance, parked decision and claimed
  // commands. The snapshot IS those slots' outcome.
  for (auto it = active_.begin();
       it != active_.end() && it->first < snap.applied_below;) {
    it = retire(it);
  }
  reorder_.erase_below(snap.applied_below);
  pending_.release_below(snap.applied_below);

  // Adopt the dedup state so duplicates of snapshotted commands in later
  // slots are skipped exactly as every other replica skipped them — a
  // replacement, so ids the snapshotters already horizon-pruned are
  // forgotten here too (see PendingQueue::restore_applied).
  pending_.restore_applied(snap.applied_ids);
  Slot slot = snap.applied_below - snap.recent_authors.size();
  for (ProcessId author : snap.recent_authors) {
    authors_[slot++ % authors_.size()] = author;
  }
  applied_commands_.store(std::max(applied_commands(), snap.applied_commands),
                          std::memory_order_relaxed);
  next_apply_ = snap.applied_below;
  next_start_ = std::max(next_start_, next_apply_);

  // Adopt the snapshot itself: we can serve it onward, and our retention
  // floor rises with it (the transferred body is already the canonical
  // encoding, digest-verified — no re-encode/re-hash). Our watermark
  // jumped too.
  catchup_.note_snapshot(snap.applied_below, std::move(body), digest);
  catchup_.note_watermark(ctx_.id, next_apply_);
  snapshots_installed_.store(snapshots_installed() + 1,
                             std::memory_order_relaxed);

  // Restore the state machine before any post-snapshot slot applies.
  if (hooks_.install) hooks_.install(snap);

  // Decisions parked above the boundary may be applicable now, and the
  // window reopens from the new cursor.
  drain_apply();
  fill_window();
  note_inflight();
  replay_parked();
}

void SlotMux::note_inflight() {
  if (inflight_slots() > inflight_high_water_.load(std::memory_order_relaxed)) {
    FASTBFT_DASSERT(host_.affinity_ok(),
                    "engine stats are single-writer (host thread)");
    inflight_high_water_.store(inflight_slots(), std::memory_order_relaxed);
  }
}

}  // namespace fastbft::engine
