// Coloring checks and the exact colorer.
//
// The paper's own coloring heuristic (Fig. 4) lives in src/assign because it
// is driven by instruction conflict counts, not by graph structure alone.
// What stays here are oracles: the validity check the tests apply to every
// coloring, and exact k-colorability on small graphs, which tests use
// directly and assign::exact_min_removals builds on.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"

namespace parmem::graph {

/// A (possibly partial) coloring: color of vertex v, or kUncolored.
inline constexpr std::int32_t kUncolored = -1;
using Coloring = std::vector<std::int32_t>;

/// True iff no edge joins two vertices with the same non-negative color and
/// all colors are < k.
bool is_valid_coloring(const Graph& g, const Coloring& coloring,
                       std::size_t k);

/// Exact k-colorability by branch-and-bound with pruning; intended for
/// graphs of up to ~30 vertices (test oracles). Returns a full coloring or
/// nullopt if the graph is not k-colorable. `fixed` may pre-color vertices.
std::optional<Coloring> exact_color(const Graph& g, std::size_t k,
                                    const Coloring& fixed = {});

}  // namespace parmem::graph
