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
#include <span>
#include <vector>

#include "assign/placement_state.h"
#include "support/rng.h"

namespace parmem::assign {

/// The occurrence index of one instruction slice: per indexed value, the
/// ascending indices of the instructions that mention it, and per
/// instruction its Fig. 10 group, the number of its duplicable operands
/// (members of V_unassigned) capped at k. Added copies change neither, so
/// one index serves every place_copies() call on the slice. Rebuilding
/// reuses the buffers: a value is indexed iff its stamp equals the build's.
class SliceIndex {
 public:
  /// Indexes the values in `values` over `insts`.
  void build(InstSpan insts, const std::vector<bool>& in_unassigned,
             std::size_t k, std::span<const ir::ValueId> values);

  bool indexes(ir::ValueId v) const {
    return v < stamp_.size() && stamp_[v] == epoch_;
  }
  /// The instructions mentioning `v`, ascending; `v` must be indexed.
  std::span<const std::uint32_t> uses(ir::ValueId v) const {
    const std::uint32_t row = row_[v];
    return {inst_.data() + off_[row], off_[row + 1] - off_[row]};
  }
  /// Instruction i's group, 0 when it has no duplicable operand.
  std::size_t group(std::size_t i) const { return group_[i]; }

 private:
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> stamp_;  // per value: indexed iff == epoch_
  std::vector<std::uint32_t> row_;    // per indexed value: its row
  std::vector<std::uint32_t> off_;    // per row + 1: CSR offsets
  std::vector<std::uint32_t> inst_;   // the rows, each ascending
  std::vector<std::uint32_t> cursor_;  // build scratch: per row
  std::vector<std::uint8_t> group_;   // per instruction
};

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
/// @param index optional index of `insts` built with the same
///        `in_unassigned` and k, covering every value of `to_place`; when
///        null, the call indexes `to_place` itself. An empty `to_place`
///        returns before any indexing.
/// @returns number of copies actually added (a value already present in all
///        modules cannot receive another copy and is skipped).
std::size_t place_copies(PlacementState& st,
                         InstSpan insts,
                         const std::vector<ir::ValueId>& to_place,
                         const std::vector<bool>& in_unassigned,
                         std::vector<std::uint8_t>& conflicting,
                         support::SplitMix64& rng,
                         const SliceIndex* index = nullptr);

}  // namespace parmem::assign
