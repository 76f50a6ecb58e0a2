// Backtracking duplication (Fig. 6, §2.2.1).
//
// Instructions are divided into sets S_1..S_k by their number of duplicable
// operands (members of V_unassigned) and processed in that order — an
// instruction with a single duplicable operand admits only one fix, so it
// goes first. For each conflicting instruction, all module assignments of
// its duplicable operands are enumerated by backtracking; existing copies
// are preferred; the assignment creating the fewest new copies wins, with a
// seeded random choice among ties.
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
  /// or when the budget tripped before they were reached.
  std::vector<std::size_t> unresolved;
  /// True iff the budget tripped and the pass stopped early; instructions
  /// not yet processed are reported in `unresolved` and the caller is
  /// expected to run the capped fix-up tier over them.
  bool budget_exhausted = false;
};

/// Resolves one instruction: enumerates module choices for its flexible
/// operands, applies the cheapest conflict-free assignment, and returns the
/// number of new copies (0 if it was already conflict-free), or nullopt if
/// no assignment of the flexible operands can avoid the conflict.
///
/// `budget` (optional) is charged per enumeration node; `node_cap`
/// (0 = unbounded) hard-caps the nodes of this one call — the degraded
/// kBacktrackCap tier uses it to guarantee termination without consulting
/// the (already exhausted) budget. When the enumeration stops early, the
/// best solution found so far is still applied if one exists.
std::optional<std::size_t> resolve_instruction(
    PlacementState& st, const std::vector<ir::ValueId>& ops,
    const std::vector<bool>& flexible, support::SplitMix64& rng,
    support::Budget* budget = nullptr, std::uint64_t node_cap = 0);

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
