#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/replica.hpp"
#include "engine/catchup.hpp"
#include "engine/host.hpp"
#include "engine/pending_queue.hpp"
#include "engine/slot_window.hpp"
#include "engine/timer_wheel.hpp"
#include "smr/batch.hpp"
#include "viewsync/synchronizer.hpp"

/// \file slot_mux.hpp
/// Slot-multiplexed consensus engine: a sliding window of up to
/// `pipeline_depth` concurrent single-shot consensus instances (one
/// paper-protocol Replica + view synchronizer per slot), multiplexed over
/// one transport endpoint and one timer wheel.
///
/// The engine is host-agnostic: it runs against the engine::Host seam
/// (clock + timers + single-threaded executor), so the identical code
/// drives the deterministic simulator (SimHost) and real OS threads over
/// wall-clock time (LoopHost, as smr::Service's threaded backend runs it).
///
/// Responsibilities:
///  * window management — up to `pipeline_depth` slots run their 2-step
///    fast paths concurrently instead of strictly one after another. The
///    next slot opens while it lies in the window and a command waits
///    unclaimed (on a follower, only while no open slot still waits for
///    the same leader's proposal), or (eager_windows) no slot is open, or
///    its view-1 leader is suspected (fill_window); a congestion clamp
///    (`max_reorder_backlog`) additionally stops opening slots while too
///    many decisions sit blocked behind a stalled predecessor;
///  * dispatch — all SMR_WRAPPED{slot, watermark, inner} traffic is routed
///    through a single slot -> instance table (no per-slot transport shims
///    on the receive path);
///  * leader schedule — slot s's view-1 leader is derived from the
///    decided log, from the author of slot s - max_window_depth()'s batch
///    (view1_leader), so once a view change replaces a crashed leader the
///    slots after it start with the replacement instead of each waiting
///    out its own view-change timeout;
///  * leader suspicion — a leader replaced in a view change is suspected
///    until its next SMR_WRAPPED arrives; every open slot it still leads
///    wishes for the next view at once (Synchronizer::suspect) instead of
///    when its timer expires, so one crash costs one view-change timeout,
///    not one per slot in flight;
///  * in-order apply — decisions may land out of slot order (a faulty
///    leader stalls slot k while k+1 decides); a reorder buffer holds them
///    until every predecessor applied, so the state machine sees the log
///    strictly in slot order;
///  * garbage collection — a slot's replica, synchronizer and timers are
///    torn down the moment it decides; claim/claim-reply bookkeeping is
///    dropped as slots retire; retained decided values are pruned below
///    the cluster-wide applied watermark gossiped in SMR traffic;
///  * snapshots — every `snapshot_interval` applied slots the engine
///    freezes the state machine (via the SnapshotHooks::state callback)
///    into an smr::Snapshot, which unpins decided-value retention from
///    crashed peers' frozen watermarks and serves full-state transfer
///    (SNAPSHOT_REQUEST/SNAPSHOT_RESPONSE) to replicas whose needed slots
///    were pruned; installing a verified snapshot jumps next-apply to the
///    snapshot boundary and restores the state machine through
///    SnapshotHooks::install;
///  * decided-value pull — an open slot that f + 1 peers' gossiped
///    watermarks have already passed is asked for at once (SMR_PULL)
///    instead of waiting out its view-change timeout; that is how a
///    replica that opens slots behind the live frontier (a rejoiner after
///    a snapshot install) catches up without a Commit stream;
///  * policy objects — client-command intake/dedup/claims (PendingQueue)
///    and decided-value/snapshot state transfer (CatchUpPolicy) live
///    behind the engine rather than in the client-facing SMR shell.

namespace fastbft::engine {

/// Cluster identity and key material the engine needs; host-independent.
/// (smr::Service builds one per replica, on every runtime.) The engine
/// derives each slot's leader function itself (SlotMux::view1_leader).
struct EngineContext {
  consensus::QuorumConfig cfg;
  ProcessId id = kNoProcess;
  std::shared_ptr<const crypto::KeyStore> keys;

  /// Consensus group this engine instance runs (sharded SMR: a node hosts
  /// one SlotMux per group). Stamped into every group-scoped wire message
  /// (SMR_WRAPPED / SMR_DECIDED / SNAPSHOT_*) right after the tag byte so
  /// the hosting node can route inbound traffic to the owning engine at a
  /// fixed offset; inbound payloads for a different group are dropped.
  GroupId group = 0;

  /// Signature-verification memo shared by every slot's Verifier on this
  /// node, so votes/certificate entries replayed across certs and
  /// pipelined slots skip redundant HMACs. Created by the SlotMux when
  /// null. Per-node, single-threaded — never share across nodes on the
  /// threaded runtime.
  std::shared_ptr<crypto::VerificationCache> verify_cache;
};

struct SlotMuxOptions {
  /// Consensus slots allowed in flight concurrently. 1 reproduces the
  /// strictly sequential pre-engine behaviour. It is max_window_depth(),
  /// the D of the leader schedule, which must be the same on every replica
  /// of a group (see rotate_leaders).
  std::uint32_t pipeline_depth = 1;

  /// Maximum commands claimed into one slot proposal.
  std::uint32_t max_batch = 8;

  /// Rotate the view-1 leader by slot index. Every slot's views run
  /// round-robin from its view-1 leader l(s) (view v is led by
  /// l(s) + v - 1 mod n). With D = max_window_depth(), slots s <= D start
  /// at p0 when pinned and at (s - 1) mod n when rotating; a later slot
  /// starts at the author of slot s - D's decided batch when pinned, and
  /// D past it when rotating. A fault-free run therefore keeps p0 (pinned)
  /// or (s - 1) mod n (rotating), and once a view change replaces a
  /// crashed leader, the slots D apart start with its replacement. With
  /// rotation, each chain of slots D apart then reaches a crashed replica
  /// at most once when gcd(D, n) > 1; when D and n are coprime it comes
  /// back to it within every n steps. Rotation spreads proposal load
  /// across the cluster. The engine sets replica.valid_value to
  /// smr::authored_by, so a decided batch always names a replica that
  /// led its slot, and D must be the same on every replica. Off by
  /// default: the paper's single-shot experiments assume the
  /// slot-independent leader function.
  bool rotate_leaders = false;

  /// Keep one slot open while idle. A slot opens for a claimable command
  /// (or when a peer's traffic joins it) or for a suspected view-1 leader
  /// either way; a follower opens one for a command only while no open
  /// slot still waits for that leader's proposal. With this set, the next
  /// slot also opens whenever none is open: followers open it at once,
  /// and its leader holds it for sync.base_timeout / 2 so a command
  /// arriving meanwhile rides it, then proposes a noop. An idle cluster
  /// thus decides one noop slot per half timeout. That keep-alive is the
  /// engine's crash probe for a leader with no traffic (the followers'
  /// view timer), and its traffic carries the watermarks that catch-up
  /// reads. Off, an idle replica is quiescent.
  bool eager_windows = true;

  /// Congestion-style depth clamp: while more than this many decisions are
  /// parked in the reorder buffer (blocked behind a stalled slot), no new
  /// slots are opened — deciding even further ahead only grows the buffer.
  /// 0 disables the clamp (window-only limiting, the PR-1 behaviour).
  std::size_t max_reorder_backlog = 0;

  /// Take a state snapshot every this many applied slots (0 disables).
  /// Snapshots unpin decided-value retention from crashed peers and enable
  /// full-state transfer for replicas that fell below the prune floor.
  std::uint64_t snapshot_interval = 0;

  /// Largest SNAPSHOT_RESPONSE chunk payload.
  std::uint32_t snapshot_chunk_bytes = 1024;

  /// Per-slot consensus tuning.
  consensus::ReplicaOptions replica;

  /// Per-slot view-synchronizer tuning (f is overwritten from the quorum
  /// config; base_timeout is in host ticks — simulator ticks or
  /// microseconds on the wall-clock host).
  viewsync::SynchronizerConfig sync;
};

/// The engine's two touch points with the state machine it replicates but
/// does not own: `state` freezes it at a snapshot boundary and returns a
/// maker for its serialized image (KvStore::freeze in the SMR shell); the
/// engine calls the maker only if a peer asks for the snapshot, possibly
/// many applies later, and it must still yield the boundary's bytes.
/// `install` restores the state machine from a verified transferred
/// snapshot. Both optional — without `state` no snapshots are taken,
/// without `install` none can be adopted.
struct SnapshotHooks {
  std::function<std::function<Bytes()>()> state;
  std::function<void(const smr::Snapshot&)> install;
};

class SlotMux {
 public:
  /// Invoked exactly once per slot, in strict slot order, with the deduped
  /// commands the decision contributed (empty for noop/duplicate slots).
  /// The commands are the callee's to move from.
  using ApplyFn = std::function<void(Slot slot, std::vector<smr::Command>&)>;

  SlotMux(Host& host, EngineContext ctx, net::Transport& transport,
          SlotMuxOptions options, ApplyFn apply, SnapshotHooks hooks = {});
  ~SlotMux();

  SlotMux(const SlotMux&) = delete;
  SlotMux& operator=(const SlotMux&) = delete;

  /// Opens the first slot (eager_windows) or none.
  void start();

  /// Admits a client command into the pending queue (dedup inside) and
  /// opens a slot for it if the window has room.
  bool submit(smr::Command cmd);

  /// Full SMR_WRAPPED payload: routed by slot through the dispatch table.
  /// The inner message is dispatched as a view into `payload` — no copy.
  /// Payloads stamped with a different GroupId are dropped (the hosting
  /// node routes by group before calling, so a mismatch here means a
  /// malformed or misrouted message).
  void on_wrapped(ProcessId from, ByteView payload);

  /// Full SMR_DECIDED payload: catch-up claim bookkeeping and adoption.
  void on_decided_claim(ProcessId from, ByteView payload);

  /// Full SMR_PULL payload: answer with the decided value (at most once
  /// per (slot, peer); nothing for a pruned or undecided slot).
  void on_decided_pull(ProcessId from, ByteView payload);

  /// Full SNAPSHOT_REQUEST payload: serve the latest snapshot, chunked,
  /// if it actually covers slots the requester is missing.
  void on_snapshot_request(ProcessId from, ByteView payload);

  /// Full SNAPSHOT_RESPONSE payload: chunk reassembly; once a verified
  /// snapshot emerges, install it and jump the apply cursor.
  void on_snapshot_response(ProcessId from, ByteView payload);

  // --- Introspection (shell, tests, benchmarks) -----------------------------

  /// View-1 leader of `slot` (SlotMuxOptions::rotate_leaders); defined
  /// for next_to_apply() <= slot < next_to_apply() + max_window_depth(),
  /// where every slot opens and applies.
  ProcessId view1_leader(Slot slot) const;

  /// Highest slot ever opened (0 before start()).
  Slot highest_started() const { return next_start_ - 1; }

  /// Next slot the state machine will apply (everything below is applied).
  Slot next_to_apply() const { return next_apply_; }

  /// Consensus instances currently live.
  std::uint32_t inflight_slots() const {
    return static_cast<std::uint32_t>(active_.size());
  }

  /// High-water mark of inflight_slots(): the widest window this engine
  /// ever ran. Thread-safe (relaxed atomic, like the gauges below).
  std::uint32_t inflight_high_water() const {
    return inflight_high_water_.load(std::memory_order_relaxed);
  }

  /// Decisions currently parked for in-order apply.
  std::size_t reorder_pending() const { return reorder_.size(); }

  /// High-water mark of decisions parked for in-order apply — nonzero iff
  /// slots decided out of order at some point. (Relaxed atomic: readable
  /// from stats threads while the engine runs.)
  std::size_t reorder_high_water() const {
    return reorder_high_water_.load(std::memory_order_relaxed);
  }

  /// Peak count of messages parked for beyond-window slots (see
  /// parked_). Zero under in-process transports; nonzero over a real
  /// network whenever a proposal overtook a window-advancing ack.
  /// Thread-safe.
  std::size_t parked_high_water() const {
    return parked_high_water_.load(std::memory_order_relaxed);
  }

  /// Times fill_window() stopped early because the reorder backlog
  /// exceeded max_reorder_backlog.
  std::uint64_t clamp_stalls() const {
    return clamp_stalls_.load(std::memory_order_relaxed);
  }

  /// The window the engine runs (SlotMuxOptions::pipeline_depth) — the
  /// bound for window-sized invariants (claim flood rejection, dedup
  /// horizon, catch-up gap heuristics) and the D of the leader schedule.
  std::uint32_t max_window_depth() const { return options_.pipeline_depth; }

  /// Commands applied (snapshot installs raise it to the snapshot's
  /// count). Thread-safe.
  std::uint64_t applied_commands() const {
    return applied_commands_.load(std::memory_order_relaxed);
  }
  std::uint64_t noop_slots() const { return noop_slots_; }

  /// Slots this engine decided after its instance for them had left view
  /// 1 (each paid a view-change timeout). Thread-safe.
  std::uint64_t view_changed_slots() const {
    return view_changed_slots_.load(std::memory_order_relaxed);
  }

  /// Wishes sent before the view timer expired because the slot's leader
  /// was suspected (Synchronizer::suspect). Thread-safe.
  std::uint64_t suspected_wishes() const {
    return suspected_wishes_.load(std::memory_order_relaxed);
  }

  /// Whether this engine suspects `replica` of having crashed: a view
  /// change replaced it as some slot's leader, and no SMR_WRAPPED from it
  /// arrived since. Never true of this replica itself. Host thread only.
  bool suspects(ProcessId replica) const { return suspected_[replica]; }

  /// SMR_PULL messages sent (see pull_decided). Thread-safe.
  std::uint64_t decided_pulls() const {
    return decided_pulls_.load(std::memory_order_relaxed);
  }

  /// Snapshots this engine froze locally at interval boundaries.
  std::uint64_t snapshots_taken() const { return snapshots_taken_; }

  /// Verified snapshots adopted via state transfer (each jumped the apply
  /// cursor past pruned slots). Thread-safe.
  std::uint64_t snapshots_installed() const {
    return snapshots_installed_.load(std::memory_order_relaxed);
  }

  /// next_to_apply() as of the last drain, and the slots this engine
  /// applied itself (snapshot installs jump the former, never the
  /// latter). Thread-safe.
  Slot apply_watermark() const {
    return apply_watermark_.load(std::memory_order_relaxed);
  }
  std::uint64_t slots_applied() const {
    return slots_applied_.load(std::memory_order_relaxed);
  }

  const PendingQueue& pending() const { return pending_; }
  const CatchUpPolicy& catchup() const { return catchup_; }
  const TimerWheel& timers() const { return timers_; }

  /// Group this engine serves (0 in unsharded nodes).
  GroupId group() const { return ctx_.group; }

  /// The verification memo every slot's Verifier shares. Exposed so tests
  /// can assert a multi-group node shares ONE cache across its engines.
  const std::shared_ptr<crypto::VerificationCache>& verify_cache() const {
    return ctx_.verify_cache;
  }

 private:
  /// Outbound half of a slot's scope: tags every send with the slot so the
  /// peer's dispatch table can route it. A message is encoded straight
  /// after its SMR_WRAPPED header, in one buffer, and a broadcast shares
  /// that buffer across all n recipients (the header — slot, watermark,
  /// snapshot floor — is recipient-independent).
  class SlotChannel final : public net::Transport {
   public:
    explicit SlotChannel(SlotMux& mux) : mux_(mux) {}
    void set_slot(Slot slot) { slot_ = slot; }
    void send(ProcessId to, SharedBytes payload) override;
    void broadcast(SharedBytes payload) override;
    void broadcast_others(SharedBytes payload) override;
    void send_message(ProcessId to, net::MessageRef msg) override;
    void broadcast_message(net::MessageRef msg) override;
    std::uint32_t cluster_size() const override;
    ProcessId self() const override;

   private:
    SlotMux& mux_;
    Slot slot_ = 0;
  };

  /// One slot's consensus instance. Instances are recycled (spare_): a
  /// retired one keeps its storage and is rebuilt in place for a later
  /// slot, so opening a slot allocates no instance.
  struct Instance {
    explicit Instance(SlotMux& mux) : channel(mux) {}
    SlotChannel channel;
    std::optional<consensus::Replica> replica;
    std::optional<viewsync::Synchronizer> sync;
    /// The slot's view-1 leader; view v is led by leader + v - 1 mod n.
    ProcessId leader = 0;
  };
  using ActiveSlot = std::pair<Slot, std::unique_ptr<Instance>>;

  void fill_window();
  void park_wrapped(Slot slot, ProcessId from, ByteView payload);
  void replay_parked();
  void start_slot(Slot slot);
  /// First live instance at or after `slot`.
  std::vector<ActiveSlot>::iterator active_from(Slot slot);
  Instance* find_active(Slot slot);
  /// Stops and removes the instance at `it`, keeping it for reuse.
  std::vector<ActiveSlot>::iterator retire(
      std::vector<ActiveSlot>::iterator it);
  /// `author`'s one-noop batch, encoded on first use.
  const Value& noop_batch(ProcessId author);
  Value make_input(Slot slot);
  /// Slot leader function whose view 1 is led by `first` (view1_leader).
  consensus::LeaderFn leader_for(ProcessId first) const;
  /// The synchronizer moved `inst` to view `v`: its old leader becomes
  /// suspected, and every open slot led by a suspect wishes early.
  void enter_view(Instance& inst, View v);
  /// Wishes for `inst`'s next view now if its current leader is suspected
  /// and it accepted no proposal in its current view.
  void suspect_leader(Instance& inst);
  /// Leader of `inst`'s current view.
  ProcessId current_leader(const Instance& inst) const;
  /// Whether `inst` accepted a proposal in its current view.
  static bool voted_in_view(const Instance& inst);
  /// Whether an open slot led by `leader` in its current view still waits
  /// for that leader's proposal (fill_window's rule (a)).
  bool awaiting_proposal(ProcessId leader) const;
  void on_slot_decided(Slot slot, const Value& value);
  void drain_apply();
  void apply_value(Slot slot, const Value& value);
  void maybe_take_snapshot(Slot just_applied);
  void install_snapshot(const smr::Snapshot& snap, Bytes body,
                        const crypto::Digest& digest);
  void request_snapshots();
  void pull_decided();
  /// SMR_WRAPPED{group, slot, watermark, snapshot floor, inner} in one
  /// exact-size buffer.
  Bytes wrap(Slot slot, net::MessageRef inner) const;
  void broadcast_wrapped(Slot slot, net::MessageRef inner, bool include_self);
  void note_inflight();

  /// Defers `fn` to the host, guarded so a closure outliving this engine
  /// (e.g. across a crash-restart node swap) becomes a no-op instead of a
  /// dangling call.
  void defer_guarded(std::function<void()> fn);

  Host& host_;
  EngineContext ctx_;
  net::Transport& transport_;
  SlotMuxOptions options_;
  ApplyFn apply_;
  SnapshotHooks hooks_;

  TimerWheel timers_;
  PendingQueue pending_;
  CatchUpPolicy catchup_;

  /// Each replica's one-noop batch, indexed by author, encoded once per
  /// engine on first use (not process-wide: engines on different threads
  /// share no buffers). An idle slot proposes ours; a slot another
  /// replica leads decodes its proposal against the leader's.
  std::vector<Value> noop_batches_;

  /// Authors of the last D = max_window_depth() applied slots, slot k in
  /// cell k % D: the input of view1_leader. An author header naming no
  /// replica (a malformed decided value) counts as the slot's own view-1
  /// leader, so the schedule stays a function of the decided log.
  std::vector<ProcessId> authors_;

  /// The dispatch table: live consensus instances, in slot order (slots
  /// open in increasing order, so opening one appends).
  std::vector<ActiveSlot> active_;
  /// Retired instances awaiting reuse, at most a maximum window's worth.
  std::vector<std::unique_ptr<Instance>> spare_;

  /// Decided out of order, waiting for predecessors: slot -> value.
  SlotWindow<Value> reorder_;
  /// Traffic for slots past the live window, parked until the window
  /// reaches them instead of dropped (see on_wrapped). In-process
  /// transports deliver in global send order, so a peer's window-opening
  /// acks always precede the leader's next proposal and this stays empty;
  /// a real network only guarantees per-link FIFO, and dropping the first
  /// proposal that overtakes a window-advancing ack stalls the slot until
  /// its view-change timeout. Bounded: a max-window horizon of slots,
  /// each capped at a handful of messages per peer.
  std::map<Slot, std::vector<std::pair<ProcessId, Bytes>>> parked_;
  bool replaying_parked_ = false;
  /// Single-writer (host thread); atomic so stats readers on other
  /// threads can sample them live without racing.
  std::atomic<std::uint32_t> inflight_high_water_{0};
  std::atomic<std::size_t> reorder_high_water_{0};
  std::atomic<std::size_t> parked_high_water_{0};
  std::atomic<std::uint64_t> clamp_stalls_{0};
  std::atomic<std::uint64_t> applied_commands_{0};
  std::atomic<std::uint64_t> snapshots_installed_{0};
  std::atomic<Slot> apply_watermark_{1};
  std::atomic<std::uint64_t> slots_applied_{0};
  std::atomic<std::uint64_t> decided_pulls_{0};
  std::atomic<std::uint64_t> view_changed_slots_{0};
  std::atomic<std::uint64_t> suspected_wishes_{0};

  /// Suspected replicas, indexed by id (suspects).
  std::vector<bool> suspected_;

  Slot next_start_ = 1;
  Slot next_apply_ = 1;
  /// Pull high-water mark: every slot below it was pulled once or decided
  /// without a pull (pull_decided).
  Slot pull_next_ = 1;
  std::uint64_t noop_slots_ = 0;
  std::uint64_t snapshots_taken_ = 0;

  /// Deferred snapshot-request probe for small floor gaps (at most the
  /// pipeline window): ordinary skew resolves itself before the probe
  /// fires, but a genuinely stuck laggard must still request even if
  /// traffic stops and no new boundary ever widens the gap.
  bool snap_probe_armed_ = false;
  Slot snap_probe_floor_ = 0;

  /// Keep-alive hold (fill_window's rule (b)): the slot this replica leads
  /// whose half-timeout hold timer was armed, and the one whose timer
  /// fired, letting it open with a noop.
  Slot hold_armed_ = 0;
  Slot hold_released_ = 0;

  /// Liveness flag captured by deferred closures (see defer_guarded).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace fastbft::engine
