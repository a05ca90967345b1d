#include <gtest/gtest.h>

#include "consensus/selection.hpp"

/// Exhaustive small-scale model check of the view-change selection
/// algorithm — the heart of the paper's safety argument (Lemmas 3.1-3.5,
/// Appendix A.3).
///
/// Model: the view-1 leader q equivocated between values x and y. Every
/// correct non-q process either acked x, acked y, or nothing (nil); f - 1
/// further processes are Byzantine and vote arbitrarily. The view-2 leader
/// collects n - f votes from an arbitrary subset of the non-q processes.
///
/// Checked for EVERY reachable configuration, vote subset and Byzantine
/// vote choice:
///   * if x could have been decided (fast path: enough ackers to form an
///     n - t quorum together with the f Byzantine processes; slow path:
///     enough correct commit-certificate holders), the selection is
///     Forced(x) — never Free, never Forced(y);
///   * x and y can never both be decidable (quorum intersection);
///   * with n - f non-equivocator votes the selection never stalls.
///
/// Votes are constructed structurally (run_selection operates on
/// pre-validated votes; signatures are checked elsewhere —
/// tests/test_certs.cpp and test_selection.cpp).

namespace fastbft::consensus {
namespace {

struct Model {
  QuorumConfig cfg;
  LeaderFn leader = nullptr;
  ProcessId q = 0;  // the equivocating view-1 leader of the modeled slot
  Value x = Value::of_string("X");
  Value y = Value::of_string("Y");

  /// `slot` selects the pipelined consensus instance being modeled: the
  /// engine runs every slot under a shifted leader base(v + k)
  /// (LeaderTracker::leader_fn: k = s - 1 for a rotating slot s <= D, and the
  /// view-1 leader taken from the decided log after that), so each slot
  /// may start from a different equivocator and a different wrap-around
  /// order. The model's shift is slot - 1; slot = 1 is the unshifted
  /// single-slot protocol.
  explicit Model(std::uint32_t f, std::uint32_t t, std::uint64_t slot = 1)
      : cfg(QuorumConfig::create(QuorumConfig::min_processes(f, t), f, t)) {
    LeaderFn base = round_robin_leader(cfg.n);
    if (slot == 1) {
      leader = base;
    } else {
      const View shift = static_cast<View>(slot - 1);
      leader = [base, shift](View v) { return base(v + shift); };
    }
    q = leader(1);
  }

  VoteRecord make_vote(ProcessId voter, const Value* value, bool with_cc) {
    VoteRecord r;
    r.voter = voter;
    if (value) {
      r.vote = Vote::of(*value, 1, ProgressCert{}, crypto::Signature{});
    } else {
      r.vote = Vote::nil();
    }
    if (with_cc && value) {
      CommitCert cc;
      cc.x = *value;
      cc.v = 1;
      r.cc = cc;
    }
    return r;
  }
};

/// One adversary configuration: counts of correct non-q processes that
/// acked x (cx, of which hx hold a commit certificate for x), acked y
/// (cy / hy), or nothing (cn).
struct World {
  std::uint32_t cx, hx, cy, hy, cn;
};

/// Enumerates leader vote sets of size n - f and Byzantine vote choices;
/// calls `check` with the resulting vote vector.
template <typename Fn>
void for_each_vote_set(Model& model, const World& world, bool slow_path,
                       const Fn& check) {
  const QuorumConfig& cfg = model.cfg;
  const std::uint32_t b = cfg.f - 1;  // Byzantine non-q processes
  const std::uint32_t quorum = cfg.vote_quorum();

  // Sampled counts: sxc/sxh x-voters without/with cc, syc/syh y-voters,
  // sn nil voters, sb Byzantine voters.
  for (std::uint32_t sxh = 0; sxh <= world.hx; ++sxh) {
    for (std::uint32_t sxc = 0; sxc <= world.cx - world.hx; ++sxc) {
      for (std::uint32_t syh = 0; syh <= world.hy; ++syh) {
        for (std::uint32_t syc = 0; syc <= world.cy - world.hy; ++syc) {
          for (std::uint32_t sn = 0; sn <= world.cn; ++sn) {
            std::uint32_t honest = sxh + sxc + syh + syc + sn;
            if (honest > quorum) continue;
            std::uint32_t sb = quorum - honest;
            if (sb > b) continue;
            // Byzantine votes: bx for x, by for y, rest nil. A Byzantine
            // process could also attach the x (or y) commit certificate if
            // one exists; attaching can only help the certified value, so
            // the adversarial worst case is to withhold it.
            for (std::uint32_t bx = 0; bx <= sb; ++bx) {
              for (std::uint32_t by = 0; by + bx <= sb; ++by) {
                std::vector<VoteRecord> votes;
                ProcessId id = 0;  // ids only need to be distinct, non-q
                auto add = [&](std::uint32_t count, const Value* value,
                               bool cc) {
                  for (std::uint32_t i = 0; i < count; ++i) {
                    if (id == model.q) ++id;  // skip the equivocator
                    votes.push_back(model.make_vote(id++, value, cc));
                  }
                };
                add(sxh, &model.x, slow_path);
                add(sxc, &model.x, false);
                add(syh, &model.y, slow_path);
                add(syc, &model.y, false);
                add(sn, nullptr, false);
                add(bx, &model.x, false);
                add(by, &model.y, false);
                add(sb - bx - by, nullptr, false);
                check(votes);
              }
            }
          }
        }
      }
    }
  }
}

void run_model(std::uint32_t f, std::uint32_t t, bool slow_path,
               std::uint64_t slot = 1) {
  Model model(f, t, slot);
  const QuorumConfig& cfg = model.cfg;
  const std::uint32_t correct = cfg.n - 1 - (cfg.f - 1);  // non-q correct
  std::uint64_t worlds = 0, vote_sets = 0;

  for (std::uint32_t cx = 0; cx <= correct; ++cx) {
    for (std::uint32_t cy = 0; cx + cy <= correct; ++cy) {
      std::uint32_t cn = correct - cx - cy;
      for (std::uint32_t hx = 0; hx <= (slow_path ? cx : 0); ++hx) {
        for (std::uint32_t hy = 0; hy <= (slow_path ? cy : 0); ++hy) {
          World world{cx, hx, cy, hy, cn};
          ++worlds;

          // Decidability of each value given full adversary cooperation
          // (q and the f-1 Byzantine processes ack/sign everything).
          bool x_fast = cx + cfg.f >= cfg.fast_quorum();
          bool y_fast = cy + cfg.f >= cfg.fast_quorum();
          bool x_slow =
              slow_path && hx + cfg.f >= cfg.commit_quorum() && hx > 0;
          bool y_slow =
              slow_path && hy + cfg.f >= cfg.commit_quorum() && hy > 0;
          // Commit certificates cannot exist without enough correct
          // signers; holders require the certificate to exist.
          bool cc_x_possible = cx + cfg.f >= cfg.commit_quorum();
          bool cc_y_possible = cy + cfg.f >= cfg.commit_quorum();
          if (hx > 0 && !cc_x_possible) continue;  // unreachable world
          if (hy > 0 && !cc_y_possible) continue;

          bool x_decidable = x_fast || x_slow;
          bool y_decidable = y_fast || y_slow;
          ASSERT_FALSE(x_decidable && y_decidable)
              << "two values decidable at once: quorum intersection broken "
              << "(cx=" << cx << " cy=" << cy << ")";

          for_each_vote_set(
              model, world, slow_path,
              [&](const std::vector<VoteRecord>& votes) {
                ++vote_sets;
                SelectionResult r = run_selection(cfg, votes, model.leader);
                ASSERT_NE(r.kind, SelectionResult::Kind::NeedMoreVotes)
                    << "selection stalled with a full vote quorum";
                if (x_decidable) {
                  ASSERT_EQ(r.kind, SelectionResult::Kind::Forced)
                      << "x decidable but selection left the leader free "
                      << "(cx=" << cx << " hx=" << hx << " cy=" << cy << ")";
                  ASSERT_EQ(r.value, model.x)
                      << "x decidable but selection forced another value";
                }
                if (y_decidable) {
                  ASSERT_EQ(r.kind, SelectionResult::Kind::Forced);
                  ASSERT_EQ(r.value, model.y);
                }
              });
        }
      }
    }
  }
  ::testing::Test::RecordProperty("worlds", static_cast<int>(worlds));
  ::testing::Test::RecordProperty("vote_sets", static_cast<int>(vote_sets));
  ASSERT_GT(vote_sets, 5u) << "the model must actually enumerate things";
}

TEST(SelectionModelCheck, VanillaF1) { run_model(1, 1, /*slow_path=*/false); }

TEST(SelectionModelCheck, VanillaF2) { run_model(2, 2, /*slow_path=*/false); }

TEST(SelectionModelCheck, GeneralizedF2T1Fast) {
  run_model(2, 1, /*slow_path=*/false);
}

TEST(SelectionModelCheck, GeneralizedF2T1Slow) {
  run_model(2, 1, /*slow_path=*/true);
}

TEST(SelectionModelCheck, GeneralizedF3T1Slow) {
  run_model(3, 1, /*slow_path=*/true);
}

TEST(SelectionModelCheck, GeneralizedF3T2Slow) {
  run_model(3, 2, /*slow_path=*/true);
}

// --- Pipelined engine path ---------------------------------------------------
//
// The same adversary schedules, run against the shifted leader functions the
// pipelined engine uses (LeaderTracker::leader_fn): a slot maps view v to
// base(v + k) for a shift k it takes from the slot number or the decided
// log, so the equivocator is the slot's actual initial leader k mod n rather
// than process 0, and the round-robin order wraps differently. Safety must
// be invariant under the shift — these would have caught a selection that
// hard-coded leader(1) = 0.

TEST(SelectionModelCheck, PipelinedSlot2F1) {
  run_model(1, 1, /*slow_path=*/false, /*slot=*/2);
}

TEST(SelectionModelCheck, PipelinedSlot5F1) {
  // slot 5 on n = 4 wraps: the equivocator is process (5 - 1) % 4 = 0 again
  // but via a full rotation, exercising the modular arithmetic.
  run_model(1, 1, /*slow_path=*/false, /*slot=*/5);
}

TEST(SelectionModelCheck, PipelinedSlot2F2T1Slow) {
  run_model(2, 1, /*slow_path=*/true, /*slot=*/2);
}

TEST(SelectionModelCheck, PipelinedSlot5F2T1Slow) {
  run_model(2, 1, /*slow_path=*/true, /*slot=*/5);
}

}  // namespace
}  // namespace fastbft::consensus
