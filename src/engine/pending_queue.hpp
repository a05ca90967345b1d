#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "smr/command.hpp"

/// \file pending_queue.hpp
/// Client-command intake policy for the slot-multiplexed engine: request
/// dedup, at-most-once apply bookkeeping, and *claims* — when several
/// consensus slots are in flight concurrently, each slot's proposal claims
/// a disjoint prefix of the pending queue so a leader pipelines distinct
/// batches instead of proposing the same commands `depth` times. Claims are
/// released when their slot retires (dedup at apply time keeps duplicate
/// proposals harmless either way; claims are purely a throughput measure).

namespace fastbft::engine {

class PendingQueue {
 public:
  /// (client_id, sequence) — the at-most-once identity of a command.
  using CommandId = std::pair<std::uint64_t, std::uint64_t>;

  /// A dedup record: the id plus the slot that applied it, which is what
  /// makes horizon pruning (and its snapshot export) deterministic.
  using AppliedEntry = std::pair<CommandId, Slot>;

  /// Accepts a client request into the queue. Returns false for noops,
  /// duplicates of anything already seen, and already-applied commands.
  bool admit(smr::Command cmd);

  /// Claims up to `max_batch` unclaimed, unapplied commands for `slot`.
  /// May return fewer (or none) if the queue is drained or claimed. The
  /// pointers stay valid until the queue is next modified.
  std::vector<const smr::Command*> claim(Slot slot, std::uint32_t max_batch);

  /// Releases `slot`'s claims (call when the slot's decision was applied).
  void release(Slot slot);

  /// Records a decided command as applied by `slot`. Returns true on the
  /// first application, false for duplicates (which the caller must skip).
  bool applied(const smr::Command& cmd, Slot slot);

  /// The applied-command dedup records in sorted id order — the
  /// deterministic state a snapshot must carry so an installing replica
  /// skips exactly the duplicates everyone else skipped.
  std::vector<AppliedEntry> applied_ids() const {
    return {applied_.begin(), applied_.end()};
  }

  /// REPLACES the dedup state with a snapshot's (queued copies of its ids
  /// are dropped; nothing counts as a fresh application). A wholesale
  /// replacement, not a merge: the snapshot set is the canonical
  /// post-horizon state at its boundary, and an installer that kept ids
  /// the snapshotters already pruned would skip a replayed command that
  /// every other replica re-applies — divergence. The installer only ever
  /// applied slots below the boundary, so nothing of local value is lost.
  void restore_applied(const std::vector<AppliedEntry>& entries);

  /// Drops dedup records applied in slots < `floor`. Called by the engine
  /// at snapshot boundaries with a horizon below the boundary, so the
  /// dedup set stays bounded by the horizon's command volume instead of
  /// growing with the cluster's lifetime. Deterministic: every replica
  /// prunes the same records at the same boundary.
  void prune_applied_before(Slot floor);

  /// Releases the claims of every slot below `floor` (snapshot install
  /// supersedes those slots wholesale).
  void release_below(Slot floor);

  std::size_t pending_count() const { return pending_.size(); }
  /// Commands claimed by slots not yet released.
  std::size_t claimed_count() const { return claimed_; }

  /// True when claim() would return at least one command: the
  /// WindowState::command_waiting input of the window rule
  /// (window_policy.hpp). O(1).
  bool has_unclaimed() const { return unclaimed_ > 0; }

 private:
  /// A queued command with its claim and apply state, so claim() tests
  /// flags instead of looking ids up.
  struct Entry {
    smr::Command cmd;
    bool claimed = false;
    bool applied = false;  ///< mirrors applied_.contains(id)
  };

  static CommandId id_of(const smr::Command& cmd) {
    return {cmd.client_id, cmd.sequence};
  }
  /// The queued entry at absolute position `pos`, if still queued.
  Entry* at(std::uint64_t pos);
  void mark_applied(Entry& entry);
  void unclaim(std::uint64_t pos);
  /// Re-derives every entry's applied flag after applied_ changed
  /// wholesale (snapshot install, horizon pruning).
  void resync_applied();
  void trim_applied_prefix();

  std::deque<Entry> pending_;
  /// Entries trimmed off the front so far: absolute position p lives at
  /// pending_[p - trimmed_].
  std::uint64_t trimmed_ = 0;
  /// Every position before it is claimed or applied; claim() starts here.
  std::uint64_t claim_cursor_ = 0;
  /// Entries neither claimed nor applied.
  std::size_t unclaimed_ = 0;
  std::size_t claimed_ = 0;
  /// Every admitted id -> its queue position.
  std::map<CommandId, std::uint64_t> seen_;
  /// id -> slot that applied it (the horizon-pruning tag).
  std::map<CommandId, Slot> applied_;
  /// slot -> positions it claimed.
  std::map<Slot, std::vector<std::uint64_t>> claims_by_slot_;
};

}  // namespace fastbft::engine
