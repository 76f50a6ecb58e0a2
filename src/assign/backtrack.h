// Backtracking duplication (Fig. 6, §2.2.1).
//
// Instructions are divided into sets S_1..S_k by their number of duplicable
// operands (members of V_unassigned) and processed in that order — an
// instruction with a single duplicable operand admits only one fix, so it
// goes first. For each conflicting instruction, a search memoised on the
// modules already taken finds the module choices for its duplicable
// operands that create the fewest new copies (existing copies are tried
// first), and a seeded draw picks one of them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "assign/placement_state.h"
#include "assign/workspace.h"
#include "support/rng.h"

namespace parmem::support {
class Budget;
}

namespace parmem::assign {

struct BacktrackOutcome {
  std::size_t copies_added = 0;
  /// Indices (into `insts`) of instructions that could not be resolved —
  /// only possible when non-duplicable operands collide among themselves,
  /// or when the budget tripped before or while they were searched.
  std::vector<std::size_t> unresolved;
  /// True iff the budget tripped and the pass stopped early; instructions
  /// not yet processed are reported in `unresolved` and the caller is
  /// expected to run the capped fix-up tier over them.
  bool budget_exhausted = false;
};

/// Resolves one instruction: searches module choices for its flexible
/// operands, applies a cheapest conflict-free assignment (one seeded draw
/// picks among the ties), and returns the number of new copies (0 if it was
/// already conflict-free), or nullopt if no assignment of the flexible
/// operands can avoid the conflict.
///
/// The search memoises on the set of modules taken so far: at most
/// sum_{i<=f} C(k, i) states for f flexible operands, each storing the
/// fewest new copies below it and how many cheapest leaves it holds.
/// `budget` (optional) is charged one step per state. A search that trips
/// it returns nullopt and changes nothing: no copy, no draw.
std::optional<std::size_t> resolve_instruction(
    PlacementState& st, const std::vector<ir::ValueId>& ops,
    const std::vector<bool>& flexible, support::SplitMix64& rng,
    support::Budget* budget = nullptr);

/// The full Fig. 6 pass over `insts`. `duplicatable` is the wider fallback
/// mask: an instruction whose conflict cannot be resolved via V_unassigned
/// members alone (e.g. a conflict between two values bound in an earlier
/// STOR2/STOR3 stage) is retried with every duplicable operand flexible.
BacktrackOutcome backtrack_duplicate(
    PlacementState& st, InstSpan insts,
    const std::vector<bool>& in_unassigned,
    const std::vector<bool>& duplicatable, support::SplitMix64& rng,
    AssignWorkspace* ws = nullptr);

}  // namespace parmem::assign
