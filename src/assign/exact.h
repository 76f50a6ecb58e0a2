// Exact (exponential) solvers for small instances — oracles for the
// heuristics.
//
// The paper proves its subproblems NP-complete (k-coloring, minimum hitting
// set, placement as largest bipartite subgraph) and quotes worst-case
// ratios: (n-k)/2 for node removal (§2.1), (k-1)× copies for the
// backtracking approach (§2.2.1), H_m for the hitting set (§2.2.2.2). These
// branch-and-bound solvers compute true optima on small instances so tests
// and the worstcase_bounds bench can measure where the heuristics actually
// land relative to those bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "assign/module_set.h"
#include "graph/graph.h"
#include "ir/access.h"

namespace parmem::assign {

/// Minimum total number of copies over all placements (each used value gets
/// a non-empty module set) such that every tuple admits distinct
/// representatives. Also returns one optimal placement.
///
/// Exponential in the number of used values; intended for <= ~8 values.
/// `node_budget` caps the search node count; returns nullopt if exceeded.
struct ExactPlacement {
  std::size_t total_copies = 0;
  std::vector<ModuleSet> placement;  // per value id (0 for unused values)
};
std::optional<ExactPlacement> exact_min_copies(
    const ir::AccessStream& stream, std::size_t module_count,
    std::uint64_t node_budget = 20'000'000);

/// Minimum number of vertices whose removal makes `g` k-colorable
/// (the optimum the Fig. 4 heuristic's V_unassigned is measured against).
/// Exponential; intended for graphs of <= ~16 vertices.
std::size_t exact_min_removals(const graph::Graph& g, std::size_t k);

}  // namespace parmem::assign
