#include "graph/atoms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/mcsm.h"

namespace parmem::graph {
namespace {

/// Structural checks every decomposition must satisfy:
/// vertices covered, edges covered, separators are cliques contained in
/// their atoms.
void check_decomposition(const Graph& g, const std::vector<Atom>& atoms) {
  std::set<Vertex> covered;
  for (const auto& a : atoms) {
    for (const Vertex v : a.vertices) covered.insert(v);
    EXPECT_TRUE(g.is_clique(a.separator));
    for (const Vertex s : a.separator) {
      EXPECT_TRUE(std::binary_search(a.vertices.begin(), a.vertices.end(), s));
    }
  }
  EXPECT_EQ(covered.size(), g.vertex_count());

  // Every edge appears inside at least one atom.
  for (Vertex u = 0; u < g.vertex_count(); ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (v < u) continue;
      bool found = false;
      for (const auto& a : atoms) {
        if (std::binary_search(a.vertices.begin(), a.vertices.end(), u) &&
            std::binary_search(a.vertices.begin(), a.vertices.end(), v)) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "edge (" << u << "," << v << ") not in any atom";
    }
  }

  // Reverse-order gluing property: atom t ∩ (atoms t+1..T) == separator_t.
  for (std::size_t t = 0; t + 1 < atoms.size(); ++t) {
    std::set<Vertex> later;
    for (std::size_t u = t + 1; u < atoms.size(); ++u) {
      later.insert(atoms[u].vertices.begin(), atoms[u].vertices.end());
    }
    std::vector<Vertex> inter;
    for (const Vertex v : atoms[t].vertices) {
      if (later.count(v)) inter.push_back(v);
    }
    EXPECT_EQ(inter, atoms[t].separator) << "atom " << t;
  }
}

TEST(Atoms, PathDecomposesIntoEdges) {
  Graph g = Graph::path(5);
  const auto atoms = decompose_by_clique_separators(g);
  EXPECT_EQ(atoms.size(), 4u);  // each edge is an atom
  for (const auto& a : atoms) EXPECT_EQ(a.vertices.size(), 2u);
  check_decomposition(g, atoms);
}

TEST(Atoms, ChordlessCycleIsOneAtom) {
  for (std::size_t n = 4; n <= 8; ++n) {
    Graph g = Graph::cycle(n);
    const auto atoms = decompose_by_clique_separators(g);
    EXPECT_EQ(atoms.size(), 1u) << "C_" << n;
    EXPECT_EQ(atoms[0].vertices.size(), n);
  }
}

TEST(Atoms, CompleteGraphIsOneAtom) {
  Graph g = Graph::complete(6);
  const auto atoms = decompose_by_clique_separators(g);
  EXPECT_EQ(atoms.size(), 1u);
}

TEST(Atoms, TwoTrianglesSharingAnEdgeSplitAtTheEdge) {
  // Vertices 0,1 shared edge; triangles {0,1,2} and {0,1,3}.
  const Graph g =
      Graph::from_edges(4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}});
  const auto atoms = decompose_by_clique_separators(g);
  ASSERT_EQ(atoms.size(), 2u);
  check_decomposition(g, atoms);
  // The separator of the first atom is the shared edge {0,1}.
  EXPECT_EQ(atoms[0].separator, (std::vector<Vertex>{0, 1}));
}

TEST(Atoms, ChordalGraphAtomsAreCliques) {
  // Chordal: two triangles joined by an articulation vertex.
  const Graph g = Graph::from_edges(
      5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  const auto atoms = decompose_by_clique_separators(g);
  ASSERT_EQ(atoms.size(), 2u);
  for (const auto& a : atoms) {
    EXPECT_TRUE(g.is_clique(a.vertices));  // atoms of chordal = max cliques
  }
  check_decomposition(g, atoms);
}

TEST(Atoms, DisconnectedGraphAtomsPerComponent) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}, {3, 4}, {2, 4}});
  const auto atoms = decompose_by_clique_separators(g);
  check_decomposition(g, atoms);
  // Isolated vertex 5 must appear in some atom.
  bool found5 = false;
  for (const auto& a : atoms) {
    found5 = found5 || std::binary_search(a.vertices.begin(),
                                          a.vertices.end(), Vertex{5});
  }
  EXPECT_TRUE(found5);
}

TEST(Atoms, RandomGraphsSatisfyStructuralInvariants) {
  support::SplitMix64 rng(2024);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t n = 4 + rng.below(26);
    Graph g = Graph::random(n, 0.08 + 0.4 * rng.uniform(), rng);
    const auto atoms = decompose_by_clique_separators(g);
    check_decomposition(g, atoms);
  }
}


/// Brute-force: a true atom has no clique *minimal* separator. For small
/// atoms, enumerate every clique subset and check that removing it never
/// disconnects the atom.
bool has_clique_separator(const Graph& atom_graph) {
  const std::size_t n = atom_graph.vertex_count();
  if (n < 2) return false;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<Vertex> sep;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (mask & (1u << v)) sep.push_back(v);
    }
    if (sep.size() >= n - 1) continue;      // must leave >= 2 vertices
    if (!atom_graph.is_clique(sep)) continue;
    // Does removing sep disconnect what remains?
    std::vector<bool> alive(n, true);
    for (const Vertex v : sep) alive[v] = false;
    Vertex start = 0;
    while (!alive[start]) ++start;
    const auto comp = atom_graph.component_of(start, alive);
    std::size_t alive_count = 0;
    for (const bool a : alive) alive_count += a;
    if (comp.size() < alive_count) return true;
  }
  return false;
}

TEST(Atoms, AtomsHaveNoCliqueSeparator) {
  support::SplitMix64 rng(4242);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t n = 5 + rng.below(10);
    Graph g = Graph::random(n, 0.25 + 0.3 * rng.uniform(), rng);
    const auto atoms = decompose_by_clique_separators(g);
    for (const auto& a : atoms) {
      if (a.vertices.size() > 12) continue;  // keep the brute force cheap
      const Graph sub = g.induced(a.vertices);
      EXPECT_FALSE(has_clique_separator(sub))
          << "iteration " << iter << ": atom of size " << a.vertices.size()
          << " still has a clique separator";
    }
  }
}

TEST(Atoms, EmptyGraph) {
  EXPECT_TRUE(decompose_by_clique_separators(Graph(0)).empty());
}

}  // namespace
}  // namespace parmem::graph
