// The hitting-set duplication approach (Fig. 7, §2.2.2).
//
// All instructions are examined before deciding which values to replicate:
//
//  1. every value removed during coloring receives two copies, placed by the
//     Fig. 10 heuristic — this eliminates all conflicts between operand
//     *pairs*;
//  2. for combination sizes num = 3..k: every num-operand combination that
//     occurs inside some instruction and still conflicts contributes the set
//     of its multi-copy operands (the candidates whose duplication can fix
//     it); a greedy hitting set (Fig. 9) picks the values to duplicate, and
//     Fig. 10 places the new copies. The round repeats at the same size
//     until no conflicting combination of that size remains (the paper's
//     "process ... is repeated until all the conflicts ... are resolved");
//  3. a final per-instruction backtracking fix-up guarantees the
//     no-predictable-conflict invariant even where the placement heuristic
//     painted itself into a corner.
#pragma once

#include <cstdint>
#include <vector>

#include "assign/placement_state.h"
#include "assign/workspace.h"
#include "support/rng.h"

namespace parmem::assign {

struct HittingSetOutcome {
  std::size_t copies_added = 0;
  /// Instructions (indices into `insts`) left conflicting; only possible
  /// when non-duplicable operands collide.
  std::vector<std::size_t> unresolved;
  /// Number of duplication/placement rounds executed (for diagnostics).
  std::size_t rounds = 0;
  /// True iff the budget (ws->budget) tripped: the iterative rounds and/or
  /// the final fix-up were skipped. The pair step (two copies per
  /// V_unassigned value) always completes, so pair conflicts are resolved
  /// even in this case; the caller runs the capped fix-up tier for the
  /// wider combinations.
  bool budget_exhausted = false;
};

HittingSetOutcome hitting_set_duplicate(
    PlacementState& st, InstSpan insts,
    const std::vector<bool>& in_unassigned,
    const std::vector<bool>& duplicatable, support::SplitMix64& rng,
    AssignWorkspace* ws = nullptr);

}  // namespace parmem::assign
