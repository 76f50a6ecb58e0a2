// Loop unrolling (AST level).
//
// The paper's RLIW compiler fed the module-assignment phase *regions* far
// larger than a single source-level basic block (region scheduling, Gupta &
// Soffa 1987). Our stand-in for that region-forming machinery is full
// unrolling of constant-trip-count for-loops: it produces the same effect —
// long straight-line stretches whose packed instructions fetch many scalars
// at once, which is exactly the conflict pressure Table 1 measures.
//
// Only `for i = <int-lit> to <int-lit>` loops with trip count in
// (0, limit] are unrolled; each copy becomes `i = <const>; body...` so
// semantics (including the final value of i) are preserved exactly. The
// copies share the body's statements rather than cloning them. Nested
// eligible loops unroll recursively, inner first, subject to a whole-
// function expansion budget.
#pragma once

#include <cstddef>

#include "frontend/ast.h"

namespace parmem::frontend {

struct UnrollOptions {
  /// Max trip count to fully unroll; 0 disables the pass.
  std::size_t max_trip = 32;
  /// Whole-program statement budget: stop unrolling when the total number
  /// of statements would exceed this.
  std::size_t max_statements = 20000;
};

struct UnrollStats {
  std::size_t loops_unrolled = 0;
  std::size_t copies_emitted = 0;  // total body copies
};

/// Unrolls in place. Run before sema? No — after parse and before or after
/// sema both work (the pass emits only constructs that re-check cleanly);
/// the pipeline runs it after sema and re-checks.
UnrollStats unroll_loops(Program& program, const UnrollOptions& opts);

}  // namespace parmem::frontend
