// Top-level memory-module assignment (the paper's Fig. 2 strategy):
//
//   construct the access-conflict graph; color it with the Fig. 4 heuristic
//   (per clique-separator atom); avoid the remaining conflicts by
//   duplication (Fig. 6 backtracking or Fig. 7 hitting-set) and placement
//   (Fig. 10).
//
// Three allocation strategies from the evaluation (§3):
//   STOR1 — all values and instructions at once (unbounded graph);
//   STOR2 — two stages: values live across regions first, then the locals
//           of each region with the globals pre-bound;
//   STOR3 — the instruction list is split into consecutive windows (the
//           paper used two); later windows keep earlier bindings fixed.
#pragma once

#include <cstdint>
#include <vector>

#include "assign/color_heuristic.h"
#include "assign/module_set.h"
#include "ir/access.h"

namespace parmem::support {
class Budget;
}

namespace parmem::assign {

class AtomMemoStore;  // incremental.h

enum class Strategy : std::uint8_t { kStor1, kStor2, kStor3 };
enum class DupMethod : std::uint8_t { kBacktracking, kHittingSet };

/// Graceful-degradation ladder (strongest to cheapest). The assigner starts
/// at kHeuristic and drops tiers as the Budget trips; AssignResult::tier
/// records the weakest tier that produced any part of the result.
///
///   kHeuristic    Fig. 4 coloring + the configured duplication method run
///                 to completion — the normal full-effort path;
///   kHittingSet   coloring completed greedily and/or duplication reduced
///                 to the Fig. 7 pair step (two copies per V_unassigned
///                 value), skipping the iterative hitting-set rounds;
///   kBacktrackCap per-instruction Fig. 6 search, each capped at 4096
///                 states, as the only conflict-resolution effort;
///   kResidual     statically predictable conflicts accepted; any value
///                 still without a copy is parked in module 0.
///
/// The numbers are part of compiled_fingerprint() (analysis/pipeline.h),
/// which journaled result-cache entries are checked against, so they never
/// move: 0 and 2 stay unused.
enum class AssignTier : std::uint8_t {
  kHeuristic = 1,
  kHittingSet = 3,
  kBacktrackCap = 4,
  kResidual = 5,
};

const char* strategy_name(Strategy s);
const char* dup_method_name(DupMethod m);
const char* tier_name(AssignTier t);

struct AssignOptions {
  std::size_t module_count = 8;
  Strategy strategy = Strategy::kStor1;
  DupMethod method = DupMethod::kHittingSet;
  /// Number of instruction windows for STOR3 (the paper's experiment: 2).
  std::size_t stor3_windows = 2;
  /// STOR2 stage-1 variant: false (default) models the paper — globals are
  /// bound before regions are examined, essentially conflict-blind ("very
  /// few conflicts are considered"); true gives stage 1 the global-only
  /// view of every instruction, which removes nearly all of STOR2's
  /// published disadvantage (see bench/stor2_stage1_ablation).
  bool stor2_informed_stage1 = false;
  /// Decompose conflict graphs into clique-separator atoms (§2.1).
  bool use_atoms = true;
  ModulePick pick = ModulePick::kLeastLoaded;
  std::uint64_t seed = 0x5eedULL;
  /// Inert: nothing reads these two. They remain declared only because the
  /// benchmark harness still assigns them; they go with its next change.
  std::size_t speculate_threshold = 0;
  std::size_t speculate_chunk = 256;
  /// Resource budget (deadline / step count), cooperatively polled by the
  /// coloring sweep and all three duplication search kernels. Null
  /// (default) is unlimited and never polls. On exhaustion the assigner
  /// degrades down the AssignTier ladder instead of failing; the result
  /// stays structurally valid (every used value keeps >= 1 copy, mutables
  /// are never duplicated).
  support::Budget* budget = nullptr;
  /// Incremental recompilation (incremental.h): memo store journaling the
  /// clique-separator decomposition across compiles under a structure-only
  /// hash, so an edit that changes only conflict weights skips MCS-M. Pure
  /// memoization: the result is byte-identical to a memo-less run for any
  /// store state. Null = off.
  AtomMemoStore* memo_store = nullptr;
};

struct AssignStats {
  std::size_t values_used = 0;        // values occurring in >= 1 tuple
  std::size_t single_copy = 0;        // Table 1 column "=1"
  std::size_t multi_copy = 0;         // Table 1 column ">1"
  std::size_t total_copies = 0;
  std::size_t unassigned_after_coloring = 0;  // |V_unassigned| over all passes
  std::size_t forced = 0;             // non-duplicable forced assignments
  std::size_t residual_conflict_tuples = 0;
  std::size_t duplication_rounds = 0;
  // Decomposition-memo accounting: hits + misses is the number of passes
  // decomposed (zeros unless memo_store was set). Never part of a golden
  // hash: the byte-identity suites compare placements.
  std::uint64_t memo_decomp_hits = 0;
  std::uint64_t memo_decomp_misses = 0;
};

struct AssignResult {
  std::size_t module_count = 0;
  /// Per value: the modules holding a copy (0 == value never accessed).
  std::vector<ModuleSet> placement;
  /// Per value: was it removed during coloring (member of V_unassigned)?
  std::vector<bool> removed;
  AssignStats stats;
  /// Weakest ladder tier that produced any part of this assignment
  /// (kHeuristic on the normal full-effort path).
  AssignTier tier = AssignTier::kHeuristic;
  /// True iff the budget tripped anywhere during the assignment.
  bool budget_exhausted = false;
};

/// Runs the full assignment pipeline on an access stream.
AssignResult assign_modules(const ir::AccessStream& stream,
                            const AssignOptions& opts);

}  // namespace parmem::assign
