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
  /// Work done by the per-step searches: adjacency entries scanned, plus
  /// boundary-list entries checked and the scans that label and repair the
  /// contracted untouched region. A pure function of the graph.
  std::uint64_t search_edges = 0;
};

/// Runs MCS-M over the whole graph: n steps, each a minimax-path search
/// over the unnumbered graph (Dial's buckets) plus the pick of the next
/// vertex from a tournament tree of packed (weight, id) ranks (O(log n)
/// per step, and usually O(1) per weight increment, with no stale
/// entries). The search treats each connected region that no numbered
/// vertex touches yet as a single node, scored in the same array as the
/// vertices, so it walks only the touched frontier. A step can still cost
/// O(m) when little of the graph is untouched, as on uniform wide streams,
/// so the whole run is O(n·m) in the worst case. The fill is sorted by two
/// counting passes (graph::sort_pairs). Timings (Release build, shared
/// 4-vCPU x86 box, best of 31 in each of two rounds): COLOR (6,384
/// vertices, no fill) 0.7-1.1 ms; perfbench's syn_monolithic stream (4,093
/// vertices, 44,197 edges, 28,289 fill edges) 10.0-10.1 ms and syn_modular
/// 9.6-12.1 ms; a uniform width-8 stream of 3,000 values (3.7 M fill
/// edges) about 0.7 s. DESIGN.md §9 has the earlier searches' figures.
Triangulation mcs_m(const Graph& g);

/// True iff `order` is a perfect elimination ordering of `g` (i.e. g is
/// chordal and order eliminates it without fill). Used by tests: MCS-M's
/// order must be perfect on H = G + F.
bool is_perfect_elimination_ordering(const Graph& g,
                                     const std::vector<Vertex>& order);

}  // namespace parmem::graph
