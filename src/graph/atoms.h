// Decomposition by clique separators (Tarjan, Discrete Math. 55, 1985).
//
// §2.1 of the paper: "the graph is decomposed into atoms which are subgraphs
// that do not have clique separators. ... If each of the atoms in a graph is
// colored using k colors then the entire graph can be colored using k
// colors. Thus the coloring algorithm need only concern itself with coloring
// the atoms."
//
// Algorithm (Tarjan 1985 / Berry, Pogorelcnik & Simonet, Algorithms 3(2),
// 2010): compute a minimal elimination ordering and its triangulation
// H = G + F (here via MCS-M); scan MCS-M's generators in elimination order
// (the vertices whose weight when picked was not above the previous
// pick's: their later neighbourhoods in H are exactly H's minimal
// separators, so no other vertex can yield a clique minimal separator);
// for generator x let S = its later neighbors in H; if S is a clique in G
// and removing S disconnects x from the rest, emit the atom C ∪ S where C
// is x's component of G' - S, and delete C from the working graph G'. The
// final working graph is the last atom. The counter
// graph.atoms.separator_tests counts the candidate splits flooded.
//
// Composition property used downstream: processing atoms in *reverse*
// generation order, the intersection of atom t with the union of atoms
// t+1..T is exactly its separator S_t — a clique — so a coloring of the
// later atoms can be extended atom by atom with the separator vertices
// pre-colored.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace parmem::graph {

/// One atom of the decomposition, in original vertex ids.
struct Atom {
  /// All vertices of the atom (sorted): component ∪ separator.
  std::vector<Vertex> vertices;
  /// The clique separator via which the atom was split off (sorted). Empty
  /// for the final atom. separator ⊆ vertices, and separator is exactly the
  /// intersection of this atom with all later-generated atoms.
  std::vector<Vertex> separator;
};

/// Decomposes `g` into atoms. Every vertex appears in at least one atom;
/// every edge appears in at least one atom; separators are cliques of `g`.
/// A connected graph with no clique separator yields a single atom.
std::vector<Atom> decompose_by_clique_separators(const Graph& g);

}  // namespace parmem::graph
