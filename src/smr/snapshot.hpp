#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

/// \file snapshot.hpp
/// Deterministic state snapshots for the replicated KV machine. A snapshot
/// freezes everything a replica needs to resume applying from a slot
/// boundary without replaying the log below it:
///
///  * `applied_below` — the snapshot covers every slot < applied_below; the
///    installer resumes applying at exactly this slot;
///  * the serialized KV state (KvStore::serialize());
///  * the applied command count (the engine's commands-applied meter, which
///    callers' await_applied barriers read);
///  * the at-most-once dedup set — the (client_id, sequence) ids applied
///    recently (within the engine's dedup horizon), each tagged with the
///    slot that applied it. Without it, an installing replica would
///    re-apply a command that a later slot duplicates while everyone else
///    skips it, and the state digests would diverge. The set is bounded:
///    the engine prunes ids applied more than a horizon of slots before
///    the snapshot boundary (deterministically, so every replica's set is
///    identical) — see engine::SlotMux::maybe_take_snapshot;
///  * the leader schedule — the authors of the last max_window_depth()
///    slots below the boundary, from which the engine derives the view-1
///    leaders of the next window of slots
///    (engine::LeaderTracker::view1_leader).
///
/// All five fields are a deterministic function of the decided log prefix,
/// so every correct replica snapshotting at the same boundary produces
/// byte-identical encodings — which is what makes the digest comparable
/// across replicas: a joining replica installs a body only when f + 1
/// distinct peers vouch for the same (applied_below, digest) and the body
/// hashes to that digest (see engine::CatchUpPolicy).

namespace fastbft::smr {

struct Snapshot {
  /// (client_id, sequence) — mirrors engine::PendingQueue::CommandId.
  using CommandId = std::pair<std::uint64_t, std::uint64_t>;

  /// A dedup entry: the command id and the slot that applied it (the slot
  /// tag is what lets later snapshots prune the entry deterministically).
  using AppliedEntry = std::pair<CommandId, Slot>;

  /// Every slot < applied_below is reflected in the state.
  Slot applied_below = 1;

  /// Commands applied into the state (noops excluded).
  std::uint64_t applied_commands = 0;

  /// KvStore::serialize() output.
  Bytes kv_state;

  /// Sorted ids of the commands applied within the dedup horizon below
  /// applied_below, tagged with their applying slot.
  std::vector<AppliedEntry> applied_ids;

  /// Authors of the slots just below applied_below, oldest first: entry i
  /// belongs to slot applied_below - recent_authors.size() + i.
  std::vector<ProcessId> recent_authors;

  /// Canonical encoding; equal snapshots encode byte-identically.
  Bytes encode() const;
  static std::optional<Snapshot> decode(const Bytes& data);

  /// SHA-256 of encode(): the transfer integrity/identity check.
  crypto::Digest digest() const;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

}  // namespace fastbft::smr
