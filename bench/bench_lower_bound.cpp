#include <cstdio>

#include "adversary/lower_bound.hpp"
#include "roles/separated.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E7: Theorem 4.5 made executable. The scripted
/// adversary (equivocating leader + colluding acker + delayed quorums +
/// crafted view change; see src/adversary/lower_bound.hpp) forces two
/// correct processes to decide different values at n = 3f + 2t - 2, and
/// provably cannot at n = 3f + 2t - 1.

int main() {
  using fastbft::adversary::run_lower_bound_attack;
  std::printf("bench_lower_bound: experiment E7 — tightness of the "
              "3f + 2t - 1 bound (f = t = 2)\n\n");
  std::printf("%-6s %-10s %-14s %-22s\n", "n", "vs bound", "view-2 value",
              "verdict");
  for (std::uint32_t n = 8; n <= 12; ++n) {
    auto outcome = run_lower_bound_attack(n);
    const char* vs = n < 9 ? "bound-1" : (n == 9 ? "= bound" : "> bound");
    std::printf("%-6u %-10s %-14s %-22s\n", n, vs,
                outcome.view2_value.to_string().c_str(),
                outcome.disagreement ? "DISAGREEMENT (broken)"
                                     : "agreement preserved");
  }

  std::printf("\nDetailed transcript at n = 8 (one below the bound):\n%s",
              run_lower_bound_attack(8).describe().c_str());
  std::printf("\nDetailed transcript at n = 9 (the paper's bound):\n%s",
              run_lower_bound_attack(9).describe().c_str());

  // --- Section 4.4: the separated proposer/acceptor model ------------------
  std::printf("\nE7b: separated proposers/acceptors (Section 4.4) — there "
              "FaB's 3f + 2t + 1 IS optimal (f = t = 1)\n\n");
  std::printf("%-6s %-12s %-22s\n", "m", "vs FaB bound", "verdict");
  for (std::uint32_t m = 5; m <= 8; ++m) {
    auto outcome = fastbft::roles::run_separated_attack(m);
    const char* vs = m < 6 ? "bound-1" : (m == 6 ? "= bound" : "> bound");
    std::printf("%-6u %-12s %-22s\n", m, vs,
                outcome.disagreement ? "DISAGREEMENT (broken)"
                                     : "agreement preserved");
  }
  std::printf("\nDetailed transcript at m = 5 acceptors:\n%s",
              fastbft::roles::run_separated_attack(5).describe().c_str());
  std::printf(
      "\nThe contrast in one line: merged roles (this paper) decide fast and\n"
      "safely with 3f+2t-1 = 4 processes; the separated model cannot do it\n"
      "with fewer than 3f+2t+1 = 6 acceptors, because a Byzantine proposer\n"
      "is not an acceptor whose vote the recovery could exclude.\n");
  return 0;
}
