#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "engine/slot_mux.hpp"
#include "runtime/node.hpp"
#include "smr/kvstore.hpp"
#include "smr/shard.hpp"

/// \file smr_node.hpp
/// State machine replication on top of the slot-multiplexed consensus
/// engine (src/engine): a sequence of slots, each an independent
/// single-shot instance of the paper's protocol, applied in slot order to
/// a deterministic KV store.
///
/// SmrNode is deliberately thin: it owns the network endpoint, the
/// per-group KV state machines and the client-facing API (submit, signed
/// replies), and delegates everything slot-shaped — window management,
/// dispatch, pending-queue/dedup policy, reorder buffering, SMR_DECIDED
/// catch-up — to engine::SlotMux.
///
/// Sharding (num_groups > 1): the node hosts one independent SlotMux +
/// KvStore per consensus group over the SAME endpoint, keys and leader
/// function. The keyspace is hash-partitioned (smr/shard.hpp): an
/// SMR_REQUEST is admitted only into the group that owns its command's
/// key, and group-scoped replication traffic carries a GroupId right
/// after the tag byte so on_message can route it without a full decode.
/// Per-node resources stay shared across groups — one VerificationCache
/// (EngineContext::verify_cache is created once here and handed to every
/// engine), one endpoint, one delivery thread — so crypto and allocation
/// costs amortize instead of multiplying by S (docs/SHARDING.md).
///
/// The shell is host-agnostic like the engine underneath it: one
/// constructor runs it over any Host + Transport pair. smr::Service builds
/// every SmrNode — over the simulator's SimHost, or over a LoopHost per
/// event-loop thread on the wall-clock backends (threaded and TCP).
///
/// Wire protocol:
///  * Requests reach every replica as SMR_REQUEST, straight from their
///    sender: a driver's submit() and a client session both broadcast to
///    all n replicas, and no replica relays. Whichever process leads a
///    slot can propose them. A request from a client endpoint must carry
///    that endpoint's id as its client_id. Commands are deduplicated by
///    (client_id, sequence) at apply time, which is what makes a
///    session's retry at-most-once.
///  * Every applied command addressed from a session endpoint is
///    answered with SMR_REPLY{command id, slot, signed execution result};
///    f + 1 matching replies complete a request at the session
///    (smr/reply.hpp, smr/session.hpp).
///  * A slot's consensus traffic is wrapped in SMR_WRAPPED{group, slot,
///    applied watermark, snapshot floor, inner}; the watermark gossip lets
///    peers prune decided values everyone has applied, and the
///    snapshot-floor gossip tells laggards when those slots are gone for
///    good.
///  * A replica receiving view-change traffic for slot s after deciding s,
///    or an SMR_PULL{group, s} from a replica that f + 1 peers' watermarks
///    show behind, replies with SMR_DECIDED{group, s, value}; f + 1
///    matching claims let a laggard adopt the decision.
///  * A replica whose apply cursor sits below a peer's gossiped snapshot
///    floor sends SNAPSHOT_REQUEST; the peer answers with its latest
///    snapshot chunked into SNAPSHOT_RESPONSE messages. f + 1 matching
///    (slot, digest) vouchers plus a digest-verified body install the
///    state and resume applying from the snapshot boundary (docs/CATCHUP.md).

namespace fastbft::smr {

struct SmrOptions {
  /// Maximum commands bundled into one slot proposal.
  std::uint32_t max_batch = 8;

  /// Consensus groups hosted by this node (hash-partitioned keyspace;
  /// see smr/shard.hpp). 1 = the unsharded single-log behaviour. Must be
  /// identical on every replica.
  std::uint32_t num_groups = 1;

  /// Consensus slots run concurrently (1 = strictly sequential slots,
  /// the pre-engine behaviour). See engine::SlotMuxOptions. It is every
  /// group's SlotMux::max_window_depth(), the D of the leader schedule
  /// (engine::SlotMuxOptions::rotate_leaders), so it must be the same on
  /// every replica; replicas that differ derive different leaders once a
  /// view change moved the schedule, and their slots stall.
  std::uint32_t pipeline_depth = 1;

  /// Rotate the view-1 leader by slot index (see engine::SlotMuxOptions).
  /// Unset = automatic: rotation is ON for multi-group runs (S groups x
  /// depth slots all led by the same process would concentrate proposal
  /// load exactly where sharding should spread it) and OFF for single
  /// groups (the paper's single-shot experiments assume a slot-independent
  /// leader function). Tests that pin a fixed leader set this explicitly.
  std::optional<bool> rotate_leaders;

  /// Keep one noop slot open while idle, its leader proposing once per
  /// half view timeout unless a command rides it first (see
  /// engine::SlotMuxOptions). The simulator and threaded default; the
  /// socket runtime turns it off so idle replicas stay quiescent.
  bool eager_windows = true;

  /// Freeze a KV snapshot every this many applied slots (0 = never).
  /// Snapshots unpin decided-value retention from crashed replicas and
  /// let a rejoining replica recover by state transfer instead of replay
  /// (see engine::SlotMuxOptions and docs/CATCHUP.md).
  std::uint64_t snapshot_interval = 0;

  /// Largest snapshot-transfer chunk payload (see engine::SlotMuxOptions).
  std::uint32_t snapshot_chunk_bytes = 1024;

  /// TEST HOOKS — Byzantine behaviours for the chaos harness
  /// (src/chaos, docs/CHAOS.md). All off by default. They corrupt only
  /// the client-facing surface, never the consensus messages: the node
  /// still participates honestly in replication (so cluster liveness is
  /// unaffected) but lies to clients.
  struct ByzantineHooks {
    /// Sign and send fabricated execution results in SMR_REPLY. A correct
    /// session outvotes up to f such replicas via its f + 1 matching-reply
    /// quorum; with SessionConfig::unsafe_first_reply_quorum set, ONE liar
    /// breaks safety — which the linearizability checker must detect.
    bool lie_in_replies = false;
  };
  ByzantineHooks byzantine;

  /// Per-slot consensus/synchronizer tuning.
  runtime::NodeOptions node;
};

class SmrNode final : public runtime::IProcess {
 public:
  /// Runs over any Host + Transport pair. `host` must outlive the node;
  /// all callbacks (messages, timers) must run on the host's single
  /// logical thread. `num_sessions` session endpoints sit beyond the n
  /// replicas (ids n .. n + num_sessions - 1); applied commands whose
  /// client_id names one of them are answered.
  SmrNode(engine::Host& host, engine::EngineContext ectx,
          std::unique_ptr<net::Transport> endpoint, SmrOptions options,
          std::uint32_t num_sessions);
  ~SmrNode() override;

  void start() override;
  void on_message(ProcessId from, const Bytes& payload) override;

  /// Local client entry point: broadcasts the request to all replicas
  /// (including this one).
  void submit(const Command& cmd);

  /// The SMR_REQUEST wire encoding of `cmd` — the single source of truth
  /// for the request framing (used by submit() and by drivers that inject
  /// requests without a wire hop, e.g. pre-start seeding).
  static Bytes encode_request(const Command& cmd);

  /// Groups hosted by this node (>= 1; identical cluster-wide).
  std::uint32_t num_groups() const {
    return static_cast<std::uint32_t>(groups_.size());
  }

  /// Owning group of `key` on this node.
  GroupId group_of(std::string_view key) const {
    return shard_of(key, num_groups());
  }

  /// Group g's state machine (g = 0 is the whole store when unsharded).
  const KvStore& store(GroupId group = 0) const {
    return groups_[group]->store;
  }

  /// SHA-256 over every group's state digest, in group order: equal
  /// digests mean equal replica states across ALL shards.
  crypto::Digest state_digest() const;

  Slot current_slot(GroupId group = 0) const {
    return groups_[group]->mux->highest_started();
  }

  /// Applied commands summed over every group. Thread-safe.
  std::uint64_t applied_commands() const;

  /// No-op slots summed over every group.
  std::uint64_t noop_slots() const;

  /// The underlying consensus engine of one group (tests, benchmarks).
  const engine::SlotMux& engine(GroupId group = 0) const {
    return *groups_[group]->mux;
  }

  /// Live engine observability, aggregated over this node's groups:
  /// high-water marks and the watermark are the max across groups, event
  /// counters are summed. Thread-safe — the knobs are fixed at
  /// construction and every other field reads relaxed atomics — so stats
  /// threads can sample a running node.
  struct EngineStats {
    std::uint32_t effective_depth = 0;   ///< SmrOptions::pipeline_depth
    std::uint32_t effective_batch = 0;   ///< SmrOptions::max_batch
    std::size_t reorder_high_water = 0;  ///< max over groups
    std::size_t parked_high_water = 0;   ///< max over groups
    /// Always 0: the reorder-backlog clamp is gone, and perfbench still
    /// reads the field.
    std::uint64_t clamp_stalls = 0;
    std::uint64_t snapshots_installed = 0;  ///< summed
    Slot apply_watermark = 0;            ///< max over groups
    std::uint64_t slots_applied = 0;     ///< summed (installs excluded)
    std::uint64_t decided_pulls = 0;     ///< SMR_PULLs sent, summed
    /// Slots decided after leaving view 1 (SlotMux::view_changed_slots),
    /// summed.
    std::uint64_t view_changed_slots = 0;
    /// Slots that wished early because their leader was suspected
    /// (SlotMux::suspected_wishes), summed.
    std::uint64_t suspected_wishes = 0;
  };
  EngineStats engine_stats() const;

 private:
  struct Group {
    KvStore store;
    std::unique_ptr<engine::SlotMux> mux;
  };

  void init_groups(engine::Host& host);
  void handle_request(ProcessId from, const Bytes& payload);
  void send_reply(Slot slot, const Command& cmd, ExecResult result);

  engine::EngineContext ectx_;
  SmrOptions options_;
  std::uint32_t num_sessions_;
  std::unique_ptr<net::Transport> endpoint_;
  /// One engine + store per consensus group; stable addresses (the engine
  /// apply callbacks capture their group), hence unique_ptr elements.
  std::vector<std::unique_ptr<Group>> groups_;
};

}  // namespace fastbft::smr
