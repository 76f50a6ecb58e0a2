// MCS-M: minimal triangulation by maximum cardinality search.
//
// The clique-separator decomposition of §2.1 (Tarjan, Discrete Math. 1985)
// needs a *minimal elimination ordering* of the graph together with its
// fill-in. Tarjan's paper uses LEX-M (Rose/Tarjan/Lueker 1976); we implement
// the equivalent and simpler MCS-M (Berry, Blair, Heggernes, Peyton,
// Algorithmica 2004), which also produces a minimal triangulation and is the
// standard modern choice. Either ordering is valid input to the atom
// decomposition.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace parmem::graph {

/// Result of MCS-M on a graph G.
struct Triangulation {
  /// Minimal elimination ordering: order[0] is eliminated first.
  /// (MCS-M numbers vertices n..1; order[i] is the vertex numbered i+1.)
  std::vector<Vertex> order;
  /// Fill edges F; H = G + F is a minimal triangulation of G.
  std::vector<std::pair<Vertex, Vertex>> fill;
};

/// Runs MCS-M. O(n * m log n) with the minimax-path search implemented as a
/// Dijkstra variant, over the whole graph. On the paper workloads that is
/// cheap, but on a large non-chordal conflict graph MCS-M dominates
/// assignment: on syn_large (one component, 28k fill edges) it took 376 of
/// the 427 ms assignment in a Release build on a 4-core x86 box.
Triangulation mcs_m(const Graph& g);

/// True iff `order` is a perfect elimination ordering of `g` (i.e. g is
/// chordal and order eliminates it without fill). Used by tests: MCS-M's
/// order must be perfect on H = G + F.
bool is_perfect_elimination_ordering(const Graph& g,
                                     const std::vector<Vertex>& order);

}  // namespace parmem::graph
