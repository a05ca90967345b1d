#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "common/value.hpp"
#include "crypto/sha256.hpp"
#include "engine/slot_window.hpp"
#include "smr/snapshot.hpp"

/// \file catchup.hpp
/// Decided-slot state-transfer policy. Fast-path acks are not transferable
/// proof of a decision, so a laggard adopts slot s's value only after f + 1
/// distinct processes claim the same decided value (at least one of them is
/// correct). This object tracks incoming claims per slot, retains decided
/// values for serving laggards, and dedups outgoing replies per (slot,
/// peer). Claim state is garbage-collected the moment a slot's decision is
/// known locally.
///
/// Retention is bounded two ways:
///
///  * Watermark trimming: every SMR_WRAPPED message gossips the sender's
///    applied watermark (the lowest slot it has NOT yet applied), and
///    decided values strictly below the minimum watermark over the whole
///    cluster are pruned — nobody can still need them, because everyone
///    already applied them.
///  * Snapshot floors: a crashed (or Byzantine, lying-low) peer freezes its
///    watermark and would pin retention from its crash point on. Once the
///    engine hands this policy a state snapshot covering every slot <
///    applied_below (note_snapshot / defer_snapshot), the prune floor rises
///    to applied_below regardless of stale watermarks: anyone who still
///    needs those slots recovers through full-state transfer instead of
///    per-slot replay.
///
/// Snapshots the engine takes itself arrive unbuilt (defer_snapshot), so a
/// replica nobody asks pays nothing for them beyond freezing the state.
///
/// Snapshot transfer protocol (SNAPSHOT_REQUEST / SNAPSHOT_RESPONSE):
/// peers gossip their snapshot floor alongside the watermark; a replica
/// whose next-apply slot sits below a peer's snapshot floor knows its
/// needed slots may be pruned there and requests the peer's snapshot
/// (once per (peer, floor) — should_request_snapshot dedups). The holder
/// answers every well-formed request with the serialized smr::Snapshot
/// split into chunks: holder-side dedup would strand a requester that
/// crashed mid-transfer and must re-fetch after rejoining. The requester
/// reassembles per sender and installs only when f + 1 distinct senders
/// vouch for the same (applied_below, digest) AND a fully reassembled body
/// hashes to that digest: the digest check defeats corrupted bodies, the
/// f + 1 rule defeats a fabricated-but-self-consistent snapshot (at least
/// one voucher is correct). Each sender funds at most one in-flight
/// (applied_below, digest) reassembly, so fetch memory is bounded by the
/// cluster size times the snapshot size.
///
/// Flood resistance: only a sender's first claim per slot counts (honest
/// replicas send exactly one reply per (slot, peer), so later ones are
/// Byzantine by construction), which bounds claim state per slot by the
/// cluster size; the engine additionally rejects claims beyond its
/// pipeline window, bounding the number of slots with live claim state.

namespace fastbft::engine {

class CatchUpPolicy {
 public:
  /// `threshold` is f + 1: the claim/voucher count that proves a decision
  /// or a snapshot. `cluster_size` is n: watermarks are tracked for every
  /// process. `snapshot_chunk_bytes` bounds one SNAPSHOT_RESPONSE payload.
  /// `group` is stamped into every outgoing SMR_DECIDED / SNAPSHOT_RESPONSE
  /// so the peer's node routes it to the matching engine (sharded SMR).
  CatchUpPolicy(std::uint32_t threshold, std::uint32_t cluster_size,
                std::uint32_t snapshot_chunk_bytes = 1024, GroupId group = 0)
      : threshold_(threshold),
        chunk_bytes_(snapshot_chunk_bytes),
        group_(group),
        watermarks_(cluster_size, 1),
        peer_snap_floors_(cluster_size, 1) {}

  /// Records a locally-known decision and drops the slot's claim state.
  void record_decided(Slot slot, Value value);

  /// The decided value for `slot`, or nullptr if unknown (never decided
  /// locally, or already pruned below the watermark floor).
  const Value* decided(Slot slot) const;

  /// Feeds one SMR_DECIDED claim. Returns the claimed value once f + 1
  /// distinct claimants agree on it (nullopt before that, and always for
  /// slots whose decision is already known).
  std::optional<Value> add_claim(Slot slot, ProcessId from,
                                 const Value& value);

  /// A claim set for `slot` that already crossed the threshold, if any.
  std::optional<Value> ready_claim(Slot slot) const;

  /// Builds the serialized SMR_DECIDED reply for `to`; nullopt if the
  /// slot is undecided or the reply would be redundant. `epoch` is the
  /// view the peer's stuck-evidence message (its WISH) named: the reply
  /// is sent once per (slot, peer) at epoch 0 — sufficient on reliable
  /// channels — and re-sent whenever the peer re-wishes at a HIGHER view,
  /// because a rising wish proves the earlier reply never landed (lossy
  /// links, chaos runs). Resends stay flood-bounded: views only escalate
  /// after the peer's own timeout, so a Byzantine peer buys at most one
  /// reply per view it can name, same as a correct-but-stuck one.
  std::optional<Bytes> reply_for(Slot slot, ProcessId to, View epoch = 0);

  /// Records `peer`'s applied watermark (everything below `applied_below`
  /// is applied there; gossiped in SMR_WRAPPED traffic, and fed for self
  /// after each local apply). Watermarks only advance — a reordered old
  /// message can never regress the floor. When the cluster-wide minimum
  /// advances, decided values, claim state and reply dedup entries below
  /// it are pruned. Returns whether the watermark advanced.
  bool note_watermark(ProcessId peer, Slot applied_below);

  /// `peer`'s last gossiped applied watermark (1 if never heard).
  Slot watermark(ProcessId peer) const {
    return peer < watermarks_.size() ? watermarks_[peer] : 1;
  }

  /// Every slot below this bound was applied — hence decided — by at
  /// least f + 1 processes, so at least one correct replica can answer an
  /// SMR_PULL for it: the threshold-th highest watermark. (A replica's own
  /// watermark never exceeds its open slots, so it never counts itself.)
  Slot quorum_applied_below() const { return quorum_applied_below_; }

  /// Lowest slot whose decided value may still be retained: the maximum of
  /// the cluster-wide watermark minimum and the local snapshot floor.
  /// Slots below it have been pruned.
  Slot prune_floor() const { return floor_; }

  std::size_t decided_count() const { return decided_.size(); }
  std::uint64_t pruned_count() const { return pruned_; }

  // --- Snapshots (full-state transfer) ---------------------------------------

  /// Adopts `body` — the canonical smr::Snapshot encoding covering every
  /// slot < applied_below, with its already-verified `digest` — as the
  /// latest local snapshot (an installed one). Unpins retention: the prune
  /// floor rises to applied_below even while crashed peers' watermarks lag
  /// behind.
  void note_snapshot(Slot applied_below, Bytes body,
                     const crypto::Digest& digest);

  /// Like note_snapshot, but the body is not built yet: `build` returns
  /// the canonical encoding and runs at most once, on the first
  /// snapshot_chunks() call, which also hashes it. The prune floor rises
  /// now. A newer snapshot replaces this one without building it.
  void defer_snapshot(Slot applied_below, std::function<Bytes()> build);

  /// applied_below of the latest snapshot (1 = none yet). Gossiped in
  /// SMR_WRAPPED so laggards know when per-slot catch-up cannot work.
  Slot snapshot_floor() const { return snap_below_; }

  /// Records the snapshot floor `peer` advertised in wrapped gossip
  /// (monotonic, like watermarks). Requests are sent only to peers that
  /// actually advertised a useful floor, so the request dedup can never
  /// suppress a peer for a snapshot it was not yet known to hold.
  void note_peer_snapshot_floor(ProcessId peer, Slot floor);
  Slot peer_snapshot_floor(ProcessId peer) const {
    return peer < peer_snap_floors_.size() ? peer_snap_floors_[peer] : 1;
  }

  /// True once per (peer, advertised floor): the caller should send
  /// SNAPSHOT_REQUEST to `peer`, whose advertised snapshot floor exceeds
  /// our applied watermark `next_apply` (our needed slots may be pruned
  /// there). A higher advertisement from the same peer re-opens the
  /// request.
  bool should_request_snapshot(ProcessId peer, Slot peer_floor,
                               Slot next_apply);

  /// The full SNAPSHOT_RESPONSE chunk sequence of the latest snapshot;
  /// empty if none exists (or it exceeds the transfer budget). The
  /// sequence is recipient-independent and every well-formed request is
  /// served — holder-side dedup would strand a requester that crashed
  /// mid-transfer and must re-fetch the same snapshot (honest requesters
  /// already self-dedup via should_request_snapshot).
  std::vector<Bytes> snapshot_chunks();

  /// A transfer that crossed the install bar: the decoded snapshot plus
  /// its already-verified canonical body and digest, so the installer can
  /// adopt it without re-encoding or re-hashing.
  struct VerifiedSnapshot {
    smr::Snapshot snapshot;
    Bytes body;
    crypto::Digest digest;
  };

  /// Feeds one SNAPSHOT_RESPONSE chunk. Returns a decoded, digest-verified
  /// snapshot ready to install once f + 1 distinct senders vouch for the
  /// same (applied_below, digest) and a full body reassembled; the caller
  /// installs it and (via note_snapshot) adopts it for serving others.
  std::optional<VerifiedSnapshot> add_snapshot_chunk(
      ProcessId from, Slot applied_below, const crypto::Digest& digest,
      std::uint32_t index, std::uint32_t count, Bytes chunk,
      Slot next_apply);

  std::uint64_t snapshots_served() const { return snapshots_served_; }

 private:
  /// Prunes decided values, claim state and reply dedup below `candidate`
  /// (monotonic; no-op unless the floor actually rises).
  void raise_floor(Slot candidate);

  /// Moves the snapshot floor to `applied_below` and raises the prune
  /// floor with it; false (and no change) for a stale snapshot.
  bool adopt_snapshot(Slot applied_below);

  std::uint32_t threshold_;
  std::uint32_t chunk_bytes_;
  GroupId group_;
  SlotWindow<Value> decided_;
  /// slot -> claimed value bytes -> claimants.
  std::map<Slot, std::map<Bytes, std::set<ProcessId>>> claims_;
  /// slot -> senders whose (single counted) claim was recorded.
  std::map<Slot, std::set<ProcessId>> claim_senders_;
  /// (slot, peer) -> highest wish epoch already answered (see reply_for).
  std::map<std::pair<Slot, ProcessId>, View> reply_sent_;
  /// Per-process applied watermark; index = ProcessId, start = 1.
  std::vector<Slot> watermarks_;
  /// Scratch for the quorum_applied_below() selection.
  std::vector<Slot> watermark_scratch_;
  Slot quorum_applied_below_ = 1;
  Slot floor_ = 1;
  std::uint64_t pruned_ = 0;

  // Latest local snapshot (holder side). While snap_build_ is set, the
  // body and digest are not built yet.
  Slot snap_below_ = 1;
  Bytes snap_body_;
  crypto::Digest snap_digest_{};
  std::function<Bytes()> snap_build_;
  std::uint64_t snapshots_served_ = 0;

  // In-flight fetch (requester side).
  /// Per-peer advertised snapshot floor; index = ProcessId, start = 1.
  std::vector<Slot> peer_snap_floors_;
  /// peer -> snapshot floor we last requested from it.
  std::map<ProcessId, Slot> snap_requested_;
  struct SnapFetch {
    std::uint32_t count = 0;
    std::map<std::uint32_t, Bytes> chunks;
    /// Delivered a complete body that failed verification: still counts
    /// as an announcer, but is never reassembled (or hashed) again.
    bool failed = false;
  };
  /// (applied_below, digest) -> per-sender partial bodies. The sender set
  /// of a key doubles as its voucher set.
  std::map<std::pair<Slot, crypto::Digest>, std::map<ProcessId, SnapFetch>>
      snap_fetch_;
};

/// SMR_PULL{group, slot}: a replica holding an open, undecided `slot`
/// that f + 1 peers already applied asks them for the decided value; each
/// answers through reply_for (one SMR_DECIDED per (slot, peer)).
Bytes encode_decided_pull(GroupId group, Slot slot);

/// The slot an SMR_PULL payload asks for; nullopt for a malformed payload,
/// trailing bytes, slot 0 or a group other than `group`.
std::optional<Slot> decode_decided_pull(ByteView payload, GroupId group);

}  // namespace fastbft::engine
