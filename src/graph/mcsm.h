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
  /// Per elimination position i: 1 iff order[i] is an MCS-M *generator*,
  /// a vertex whose weight when picked was not above the weight of the
  /// vertex picked just before it (order[i + 1]); the first pick is none.
  /// A vertex's weight when picked is |madj(x)|, the number of its later
  /// neighbours in H. Every minimal separator of H is madj(x) of some
  /// generator x (Berry, Pogorelcnik & Simonet, Algorithms 3(2), 2010), so
  /// the clique-separator split tests only these.
  std::vector<std::uint8_t> generator;
  /// Work done by the per-step searches: adjacency entries scanned, plus
  /// boundary-list entries checked and the scans that label and repair the
  /// contracted untouched region. A pure function of the graph.
  std::uint64_t search_edges = 0;
  /// Steps whose search ran as a closure over 64-bit masks (mcs_m below).
  std::uint64_t mask_steps = 0;
  /// True iff the run entered mask mode and later left it, because the
  /// touched vertices or the untouched components next to them outgrew 64.
  bool mask_exit = false;
};

/// Runs MCS-M over the whole graph: n steps, each a minimax-path search
/// over the unnumbered graph plus the pick of the next vertex. The search
/// treats each connected region that no numbered vertex touches yet as a
/// single node, so it walks only the touched frontier; until that region
/// is labelled (once the searches have scanned n + 2m entries) it runs on
/// Dial's buckets with the pick from a tournament tree of packed
/// (weight, id) ranks. After labelling, while the touched vertices and the
/// untouched components next to them each fit in 64 slots, a step is a
/// level-by-level closure over 64-bit masks (one OR per reached vertex or
/// component) and the pick scans the touched vertices; a run that outgrows
/// the slots rebuilds the tree once and finishes on the bucket search. A
/// step can still cost O(m) when little of the graph is untouched, as on
/// uniform wide streams, so the whole run is O(n·m) in the worst case. The
/// fill is sorted by two counting passes (graph::sort_pairs). Each step
/// also records whether its vertex is a generator
/// (Triangulation::generator), one compare. Timings (Release build, shared
/// 4-vCPU x86 box, pinned to one CPU, best of 31 in each of three rounds):
/// COLOR (6,384 vertices, no fill, never labels) 0.7-0.8 ms; perfbench's
/// syn_monolithic stream (4,093 vertices, 44,197 edges, 28,289 fill edges,
/// all but 3 steps on masks) 4.5-6.1 ms and syn_modular (4,081 vertices,
/// 25,849 fill edges) 4.2-4.4 ms, 0.49-0.70x and 0.51-0.57x of the bucket
/// search over six rounds. DESIGN.md §9 has the earlier searches'
/// figures.
Triangulation mcs_m(const Graph& g);

/// True iff `order` is a perfect elimination ordering of `g` (i.e. g is
/// chordal and order eliminates it without fill). Used by tests: MCS-M's
/// order must be perfect on H = G + F.
bool is_perfect_elimination_ordering(const Graph& g,
                                     const std::vector<Vertex>& order);

}  // namespace parmem::graph
