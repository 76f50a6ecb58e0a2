// Baseline graph colorings.
//
// The paper's own coloring heuristic (Fig. 4) lives in src/assign because it
// is driven by instruction conflict counts, not by graph structure alone.
// These baselines serve three roles: (1) oracles in tests (exact coloring on
// small graphs), (2) comparison points in the ablation benches, and (3) the
// "any algorithm will be successful in coloring such a node" argument of
// §2.1, which the first-fit baseline demonstrates.
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

/// Greedy first-fit in the given vertex order with k colors. Vertices that
/// cannot be colored are left kUncolored (they are the analogue of the
/// paper's V_unassigned).
Coloring first_fit(const Graph& g, std::size_t k,
                   const std::vector<Vertex>& order);

/// DSATUR (Brelaz 1979) with k colors; uncolorable vertices left kUncolored.
Coloring dsatur(const Graph& g, std::size_t k);

/// DSATUR run independently on every connected component (each on its
/// induced subgraph). Components share no edges, so the merged coloring is
/// a valid coloring of the whole graph.
Coloring dsatur_components(const Graph& g, std::size_t k);

/// Exact k-colorability by branch-and-bound with pruning; intended for
/// graphs of up to ~30 vertices (test oracles). Returns a full coloring or
/// nullopt if the graph is not k-colorable. `fixed` may pre-color vertices.
std::optional<Coloring> exact_color(const Graph& g, std::size_t k,
                                    const Coloring& fixed = {});

/// Exact chromatic number (same size limits as exact_color).
std::size_t chromatic_number(const Graph& g);

}  // namespace parmem::graph
