#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "consensus/types.hpp"

/// \file leader_tracker.hpp
/// The pipelined engine's leader schedule and leader suspicion. With
/// D = SlotMuxOptions::pipeline_depth, slots s <= D start at p0 when
/// pinned and at (s - 1) mod n when rotating; a later slot starts at the
/// author of slot s - D's decided batch when pinned, and D past it when
/// rotating. Every correct replica opens slot s only after applying slot
/// s - D (the window stops below next-to-apply + D), and a snapshot
/// install carries the last D authors, so all of them derive the same
/// leader. Views run round-robin from there: view v of a slot whose view-1
/// leader is l is led by l + v - 1 mod n.

namespace fastbft::engine {

class LeaderTracker {
 public:
  LeaderTracker(std::uint32_t n, ProcessId self, std::uint32_t depth,
                bool rotate)
      : n_(n), self_(self), rotate_(rotate), authors_(depth), suspected_(n) {}

  /// View-1 leader of `slot`; defined for the D slots after the last
  /// recorded one, which is where every slot opens and applies.
  ProcessId view1_leader(Slot slot) const {
    const Slot depth = authors_.size();
    if (slot <= depth) return rotate_ ? (slot - 1) % n_ : 0;
    const ProcessId author = authors_[slot % depth];
    return (rotate_ ? author + depth : author) % n_;
  }

  /// Leader of view `v` in the round robin that starts at `first`.
  ProcessId leader(ProcessId first, View v) const { return rotate(first, v, n_); }
  consensus::LeaderFn leader_fn(ProcessId first) const {
    return [n = n_, first](View v) { return rotate(first, v, n); };
  }

  /// Records applied slot `slot`'s batch author and returns the one the
  /// schedule uses: an author outside [0, n) (a malformed decided value)
  /// counts as the slot's own view-1 leader, so the schedule stays a
  /// function of the decided log.
  ProcessId record_author(Slot slot, std::optional<ProcessId> author) {
    if (!author || *author >= n_) author = view1_leader(slot);
    return authors_[slot % authors_.size()] = *author;
  }

  /// Authors of the (up to) D slots below `boundary`, oldest first
  /// (smr::Snapshot::recent_authors).
  std::vector<ProcessId> recent_authors(Slot boundary) const {
    const Slot depth = authors_.size();
    std::vector<ProcessId> recent;
    for (Slot k = boundary > depth ? boundary - depth : 1; k < boundary; ++k) {
      recent.push_back(authors_[k % depth]);
    }
    return recent;
  }
  /// Adopts a snapshot's recent_authors. f + 1 vouchers make at least one
  /// snapshotter correct, so a list of another length means replicas run
  /// different depths and would derive different leaders: it aborts.
  void restore(Slot boundary, const std::vector<ProcessId>& authors) {
    FASTBFT_ASSERT(
        authors.size() == std::min<Slot>(authors_.size(), boundary - 1),
        "max_window_depth differs between replicas");
    Slot slot = boundary - authors.size();
    for (ProcessId a : authors) authors_[slot++ % authors_.size()] = a;
  }

  /// Replicas suspected of having crashed, indexed by id: a view change
  /// replaced them as some slot's leader and no SMR_WRAPPED from them
  /// arrived since. Never this replica.
  const std::vector<bool>& suspected() const { return suspected_; }
  /// Suspects `replaced`; true if it was not suspected before.
  bool suspect(ProcessId replaced) {
    if (replaced == self_ || suspected_[replaced]) return false;
    return suspected_[replaced] = true;
  }
  /// `from` sent an SMR_WRAPPED: it is alive.
  void heard_from(ProcessId from) {
    if (from < n_) suspected_[from] = false;
  }

 private:
  static ProcessId rotate(ProcessId first, View v, std::uint32_t n) {
    return (first + (v - 1) % n) % n;
  }

  std::uint32_t n_;
  ProcessId self_;
  bool rotate_;
  /// Authors of the last D applied slots, slot k in cell k % D.
  std::vector<ProcessId> authors_;
  std::vector<bool> suspected_;
};

}  // namespace fastbft::engine
