#pragma once

#include <vector>

#include "consensus/types.hpp"

/// \file selection.hpp
/// The selection algorithm of Section 3.2 / Appendix A.2 as a pure
/// deterministic function over a set of validated votes. Both the
/// view-change leader and every CertAck verifier run the same function, so
/// a progress certificate exists iff at least one correct process confirmed
/// the selection — exactly the paper's soundness argument.
///
/// The paper's "restart the selection if w changed" step is subsumed by
/// re-running the function whenever a new vote arrives: w is recomputed
/// from scratch each time and can only grow.

namespace fastbft::consensus {

struct SelectionResult {
  enum class Kind {
    /// Exactly this value is safe to propose.
    Forced,
    /// Any value is safe in the new view (leader proposes its own input).
    Free,
    /// Not enough (non-equivocator) votes yet; keep collecting.
    NeedMoreVotes,
  };

  Kind kind = Kind::NeedMoreVotes;
  Value value;  // meaningful iff kind == Forced

  /// Filled when two valid votes expose conflicting proposals signed by the
  /// same past leader — undeniable evidence that `equivocator` is Byzantine.
  bool equivocation_detected = false;
  ProcessId equivocator = kNoProcess;

  /// Highest view among the non-nil votes (kNoView if all nil).
  View w = kNoView;

  static SelectionResult forced(Value v) {
    SelectionResult r;
    r.kind = Kind::Forced;
    r.value = std::move(v);
    return r;
  }
  static SelectionResult free() {
    SelectionResult r;
    r.kind = Kind::Free;
    return r;
  }
  static SelectionResult need_more() { return SelectionResult{}; }
};

/// Runs the selection algorithm over `votes`.
///
/// Preconditions (enforced by callers, asserted here):
///  * all records passed `validate_vote_record` for the same target view;
///  * voters are pairwise distinct.
///
/// Branches implemented (paper references):
///  1. fewer than n-f votes                          -> NeedMoreVotes
///  2. all votes nil (Lemma 3.1)                     -> Free
///  3. unique value at the highest view w (L. 3.3)   -> Forced(x)
///  4. equivocation by q = leader(w):
///     a. fewer than n-f votes from others           -> NeedMoreVotes
///     b. commit certificate for (x, w) among them
///        (Appendix A.2 case 1)                      -> Forced(x)
///     c. >= f+t votes for x at w from others
///        (case 2; 2f in the vanilla t = f protocol,
///        Lemma 3.4)                                 -> Forced(x)
///     d. otherwise (case 3, Lemma 3.5)              -> Free
///
/// When more than one candidate satisfies 4c (possible only if n exceeds
/// the 3f+2t-1 minimum AND no value was actually decided at w — see the
/// counting argument in tests/test_selection.cpp), the lexicographically
/// smallest value is chosen so that leader and verifiers agree.
SelectionResult run_selection(const QuorumConfig& cfg,
                              const std::vector<VoteRecord>& votes,
                              const LeaderFn& leader_of);

/// Verifier side of CertReq: does the leader-supplied vote set justify
/// proposing `x`? True iff selection yields Forced(x), or Free (any value
/// is safe, including the leader's own input) and `fresh_ok`, the
/// application's verdict on `x` as the leader's own proposal
/// (ReplicaOptions::valid_value).
bool selection_admits(const QuorumConfig& cfg,
                      const std::vector<VoteRecord>& votes,
                      const LeaderFn& leader_of, const Value& x,
                      bool fresh_ok = true);

}  // namespace fastbft::consensus
