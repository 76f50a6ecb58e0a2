// The full compilation pipeline, end to end:
//
//   MC source -> AST -> TAC (-> renaming) -> long instruction words
//   -> access stream -> module assignment (STOR1/2/3, Fig. 4/6/7/9/10)
//   -> scheduled copy transfers -> simulatable LIW program.
//
// This is the one-call entry point the examples, tests and benches build
// on; each stage's artifact is kept so callers can inspect or re-run any
// part.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assign/assigner.h"
#include "assign/verify.h"
#include "support/budget.h"
#include "frontend/unroll.h"
#include "ir/access.h"
#include "ir/liw.h"
#include "ir/tac.h"
#include "lower/ifconvert.h"
#include "lower/lower.h"
#include "lower/opt.h"
#include "lower/rename.h"
#include "machine/config.h"
#include "machine/simulator.h"
#include "sched/list_scheduler.h"
#include "sched/transfer_sched.h"
#include "telemetry/registry.h"

namespace parmem::analysis {

struct PipelineOptions {
  sched::SchedOptions sched;
  assign::AssignOptions assign;
  lower::LowerOptions lower;
  /// Full unrolling of small constant-bound loops — the stand-in for the
  /// RLIW compiler's region scheduling (see frontend/unroll.h). Set
  /// unroll.max_trip = 0 to disable.
  frontend::UnrollOptions unroll;
  /// Apply the §3 renaming extension before scheduling.
  bool rename = false;
  /// Run copy propagation + dead code elimination on the TAC.
  bool optimize = true;
  /// If-convert pure branch bodies into selects (region-scheduling style
  /// block enlargement). Set if_convert.max_ops = 0 to disable.
  lower::IfConvertOptions if_convert;
  /// Count destination writes as module accesses when extracting the
  /// access stream (off = the paper's operand-fetch model).
  bool include_writes = false;
  /// Allow duplicating mutable values (each copy refreshed by a scheduled
  /// transfer after every definition). On = the paper's §2 value model.
  bool duplicate_mutables = true;
  /// Inert (see machine::ParallelConfig): a compile runs on its calling
  /// thread whatever this holds.
  machine::ParallelConfig parallel;
  /// Compile budget (wall-clock deadline and/or step count). Default
  /// (both zero) is unlimited. On exhaustion the assignment degrades down
  /// the AssignTier ladder (assigner.h) instead of hanging or failing; the
  /// compile still completes and Compiled::degraded() reports the loss of
  /// quality. A step-count-only budget degrades deterministically — the
  /// trip point is a pure function of the input; wall-clock deadlines trip
  /// at machine-dependent points by nature.
  support::BudgetSpec budget;
  /// Decomposition memo store for incremental recompilation (assigner.h,
  /// DESIGN.md §13). When set, the assignment phase reuses a journaled
  /// clique-separator decomposition whenever the conflict graph's structure
  /// is unchanged — output stays byte-identical to a from-scratch compile.
  /// Null = every compile is from scratch. The caller owns the store
  /// (typically a cache::AtomCache) and may share it across compiles,
  /// concurrent ones on other threads included; it must outlive them.
  assign::AtomMemoStore* atom_memo = nullptr;
  /// Name used in diagnostics for this source ("<source>" when empty).
  std::string source_name;
};

struct Compiled {
  ir::TacProgram tac;                 // after lowering (+ renaming)
  frontend::UnrollStats unroll_stats;
  lower::RenameStats rename_stats;    // zeros when renaming is off
  lower::OptStats opt_stats;          // zeros when optimization is off
  lower::IfConvertStats if_convert_stats;
  sched::SchedStats sched_stats;
  ir::AccessStream stream;            // extracted from the scheduled words
  assign::AssignResult assignment;
  assign::VerifyReport verify;
  sched::TransferStats transfer_stats;
  ir::LiwProgram liw;                 // final program, transfers included
  /// Per-compile telemetry counter deltas (conflicts before/after coloring,
  /// |V_unassigned|, copies inserted, colors used, ... — the taxonomy is in
  /// DESIGN.md §10). Tests and benches read these instead of re-deriving
  /// them. Empty when built with -DPARMEM_TELEMETRY=OFF; exact per compile
  /// unless other compiles run concurrently on other threads (the registry
  /// is process-wide).
  telemetry::Snapshot telemetry;

  /// True iff the budget forced the assignment below the full-effort tier
  /// (the result is valid — verified — but of reduced quality).
  bool degraded() const {
    return assignment.tier > assign::AssignTier::kHeuristic;
  }
};

/// Compiles MC source through the whole pipeline on the calling thread.
/// Throws UserError on malformed input, InternalError on library bugs.
/// A throw leaves no state behind, so the next compile is unaffected.
/// Compiles on different threads are independent (they may share
/// `atom_memo`). `cancel` (optional) trips this compile's budget when
/// cancelled — the assignment degrades to the cheapest tier and the compile
/// returns early work rather than blocking.
Compiled compile_mc(const std::string& source, const PipelineOptions& opts,
                    const support::CancelToken* cancel = nullptr);

/// Order-independent FNV-1a fingerprint of a compiled artifact: the final
/// LIW text plus the placement, removals and tier. Two Compiled results
/// with equal fingerprints serialize to the same program — the service's
/// result cache stores this next to each response so a warm-restart hit
/// can be integrity-checked against the bytes it is about to serve.
std::uint64_t compiled_fingerprint(const Compiled& compiled);

/// Convenience: run the compiled program and its sequential reference,
/// checking that their outputs agree (throws InternalError on divergence).
struct ExecutionPair {
  machine::RunResult liw;
  machine::RunResult sequential;
};
ExecutionPair run_and_check(const Compiled& compiled,
                            const machine::MachineConfig& config);

}  // namespace parmem::analysis
