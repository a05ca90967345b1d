#include "consensus/selection.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/assert.hpp"

namespace fastbft::consensus {

SelectionResult run_selection(const QuorumConfig& cfg,
                              const std::vector<VoteRecord>& votes,
                              const LeaderFn& leader_of) {
  {
    std::set<ProcessId> voters;
    for (const auto& r : votes) voters.insert(r.voter);
    FASTBFT_ASSERT(voters.size() == votes.size(),
                   "selection requires distinct voters");
  }

  if (votes.size() < cfg.vote_quorum()) return SelectionResult::need_more();

  // Highest view among non-nil votes.
  View w = kNoView;
  for (const auto& r : votes) {
    if (!r.vote.is_nil) w = std::max(w, r.vote.u);
  }
  if (w == kNoView) return SelectionResult::free();  // all nil (Lemma 3.1)

  // Distinct values voted for at view w.
  std::set<Value> values_at_w;
  for (const auto& r : votes) {
    if (!r.vote.is_nil && r.vote.u == w) values_at_w.insert(r.vote.x);
  }
  FASTBFT_ASSERT(!values_at_w.empty(), "w must come from some vote");

  if (values_at_w.size() == 1) {
    SelectionResult r = SelectionResult::forced(*values_at_w.begin());
    r.w = w;
    return r;
  }

  // Two different values carry valid proposer signatures for view w:
  // leader(w) equivocated and is provably Byzantine. Its vote no longer
  // counts; we need n - f votes from the remaining processes.
  ProcessId q = leader_of(w);

  std::vector<const VoteRecord*> others;
  others.reserve(votes.size());
  for (const auto& r : votes) {
    if (r.voter != q) others.push_back(&r);
  }

  auto with_equivocation = [&](SelectionResult r) {
    r.equivocation_detected = true;
    r.equivocator = q;
    r.w = w;
    return r;
  };

  if (others.size() < cfg.vote_quorum()) {
    return with_equivocation(SelectionResult::need_more());
  }

  // Appendix A.2 case 1: a commit certificate for view w among the
  // non-equivocator votes forces its value. (In any state reachable with
  // valid artifacts at most one value can have a commit certificate per
  // view; we still pick deterministically for robustness.)
  std::set<Value> cc_values;
  for (const VoteRecord* r : others) {
    if (r->cc && r->cc->v == w) cc_values.insert(r->cc->x);
  }
  if (!cc_values.empty()) {
    return with_equivocation(SelectionResult::forced(*cc_values.begin()));
  }

  // Case 2: >= f + t votes for one value at view w from non-equivocator
  // processes (2f in the vanilla protocol). If several values qualify —
  // only possible when n exceeds the minimum and nothing was decided at w —
  // any of them is safe; take the smallest for determinism.
  std::map<Value, std::uint32_t> counts;
  for (const VoteRecord* r : others) {
    if (!r->vote.is_nil && r->vote.u == w) counts[r->vote.x] += 1;
  }
  for (const auto& [value, count] : counts) {
    if (count >= cfg.equivocation_vote_threshold()) {
      return with_equivocation(SelectionResult::forced(value));
    }
  }

  // Case 3 / Lemma 3.5: no value could have been decided in any view < v.
  return with_equivocation(SelectionResult::free());
}

bool selection_admits(const QuorumConfig& cfg,
                      const std::vector<VoteRecord>& votes,
                      const LeaderFn& leader_of, const Value& x,
                      bool fresh_ok) {
  SelectionResult result = run_selection(cfg, votes, leader_of);
  switch (result.kind) {
    case SelectionResult::Kind::Forced:
      return result.value == x;
    case SelectionResult::Kind::Free:
      return fresh_ok && !x.empty();
    case SelectionResult::Kind::NeedMoreVotes:
      return false;
  }
  return false;
}

}  // namespace fastbft::consensus
