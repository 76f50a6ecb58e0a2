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

/// Runs MCS-M over the whole graph: n steps, each a minimax-path search
/// over the unnumbered graph (Dial's buckets, O(m) per step) plus an
/// O(log n) pick of the next vertex from a lazy heap. On the paper
/// workloads that is cheap (COLOR, 6,384 vertices with no fill: about
/// 4 ms). On a large non-chordal conflict graph the per-step searches
/// dominate assignment: on perfbench's syn_monolithic stream (4,093
/// vertices, 44,197 edges, 28,289 fill edges) MCS-M takes 330-390 ms in a
/// Release build on a shared 4-vCPU x86 box.
Triangulation mcs_m(const Graph& g);

/// True iff `order` is a perfect elimination ordering of `g` (i.e. g is
/// chordal and order eliminates it without fill). Used by tests: MCS-M's
/// order must be perfect on H = G + F.
bool is_perfect_elimination_ordering(const Graph& g,
                                     const std::vector<Vertex>& order);

}  // namespace parmem::graph
