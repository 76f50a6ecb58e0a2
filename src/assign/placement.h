// Placement of value copies (Fig. 10).
//
// Given a set of values that must receive one additional copy each, choose
// the target modules so that the maximum number of outstanding conflicts is
// resolved. Doing this optimally is NP-complete (§2.2.2.2: largest bipartite
// subgraph); the paper's heuristic:
//
//  * conflicting instructions are grouped by how many of their operands are
//    duplicable (members of V_unassigned): group I_1 (single duplicable
//    operand — only one way to fix it) is most constrained and considered
//    first, then I_2, etc.;
//  * values are placed one at a time, most-frequently-conflicting (in group
//    order) first;
//  * a value goes to the module with the lexicographically largest
//    resolved-conflict vector (C_{M,I_1}, C_{M,I_2}, ..., C_{M,I_k}); if all
//    candidate modules are equal, a (seeded) random choice is made.
#pragma once

#include <cstdint>
#include <vector>

#include "assign/placement_state.h"
#include "assign/workspace.h"
#include "support/rng.h"

namespace parmem::assign {

/// Sets conflicting[i] to 1 iff instruction i currently lacks an SDR, and
/// to 0 otherwise: the flags place_copies() expects.
void mark_conflicting(const PlacementState& st, InstSpan insts,
                      std::vector<std::uint8_t>& conflicting);

/// Places exactly one additional copy of each value in `to_place`.
///
/// @param insts the operand lists of the instructions in scope (filtered for
///        the current strategy stage).
/// @param in_unassigned per-value flag: is the value duplicable, i.e. was it
///        removed during coloring (drives the instruction grouping).
/// @param conflicting per instruction of `insts`, 1 iff it lacks an SDR in
///        `st` (as mark_conflicting() sets it). The call clears the flag of
///        every instruction its copies resolve, so the flags stay exact on
///        return: a caller that adds copies only through place_copies()
///        computes them once and passes the same array to every call.
/// @param ws optional reusable scratch (the occurrence index); a local
///        workspace is used when null. The call bumps the workspace's value
///        epoch, so callers must not keep their own value marks live
///        across it.
/// @returns number of copies actually added (a value already present in all
///        modules cannot receive another copy and is skipped).
std::size_t place_copies(PlacementState& st,
                         InstSpan insts,
                         const std::vector<ir::ValueId>& to_place,
                         const std::vector<bool>& in_unassigned,
                         std::vector<std::uint8_t>& conflicting,
                         support::SplitMix64& rng,
                         AssignWorkspace* ws = nullptr);

}  // namespace parmem::assign
