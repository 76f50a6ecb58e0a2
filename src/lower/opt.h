// Classic TAC clean-up passes.
//
// Inlining, renaming and lowering leave behind chains of `mov` copies and
// values that are never read. Any compiler of the paper's era ran these two
// passes; here they sharpen the access streams (fewer spurious fetches, so
// conflict graphs reflect real operand traffic) and tighten the scheduled
// words.
//
//  * copy propagation (block-local): a use of `x` after `mov x = y` reads
//    `y` directly while neither x nor y has been redefined;
//  * dead code elimination (global, to fixpoint in one call): instructions
//    defining a value that no remaining instruction reads are dropped, and
//    dropping one releases its own reads, so a whole dead chain goes at
//    once. No opcode with a destination has a side effect. Loads are
//    treated as pure; a dead integer division is dropped even though it
//    could trap at run time — MC declares division by zero in dead code
//    to be unobservable (both the LIW machine and the sequential reference
//    execute the same optimized TAC, so they agree).
#pragma once

#include "ir/tac.h"

namespace parmem::lower {

struct OptStats {
  std::size_t copies_propagated = 0;
  std::size_t instructions_removed = 0;
  /// Sweeps of (copy propagation, DCE) run, counting the final sweep that
  /// changed nothing. DCE reaches its fixpoint within one sweep, so each of
  /// the six paper programs takes 2.
  std::size_t passes = 0;
};

/// Runs copy propagation and DCE alternately until neither changes
/// anything. Branch targets are remapped when instructions are removed.
OptStats optimize(ir::TacProgram& prog);

/// Individual passes (exposed for tests). Each returns what it changed:
/// operands rewritten, or instructions removed. One dead_code_eliminate
/// call removes every definition that repeated calls would remove.
std::size_t copy_propagate(ir::TacProgram& prog);
std::size_t dead_code_eliminate(ir::TacProgram& prog);

}  // namespace parmem::lower
