#include "graph/mcsm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace parmem::graph {
namespace {

Graph with_fill(const Graph& g, const Triangulation& tri) {
  std::vector<std::pair<Vertex, Vertex>> edges(tri.fill.begin(),
                                               tri.fill.end());
  for (Vertex u = 0; u < g.vertex_count(); ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(g.vertex_count(), std::move(edges));
}

TEST(McsM, ChordalGraphNeedsNoFill) {
  // A tree is chordal.
  Graph g = Graph::path(8);
  const Triangulation tri = mcs_m(g);
  EXPECT_TRUE(tri.fill.empty());
  EXPECT_TRUE(is_perfect_elimination_ordering(g, tri.order));
}

TEST(McsM, CompleteGraphNeedsNoFill) {
  Graph g = Graph::complete(6);
  const Triangulation tri = mcs_m(g);
  EXPECT_TRUE(tri.fill.empty());
  EXPECT_TRUE(is_perfect_elimination_ordering(g, tri.order));
}

TEST(McsM, CycleNeedsExactlyMinimalFill) {
  // C_n needs n-3 fill edges in any minimal triangulation.
  for (std::size_t n = 4; n <= 10; ++n) {
    Graph g = Graph::cycle(n);
    const Triangulation tri = mcs_m(g);
    EXPECT_EQ(tri.fill.size(), n - 3) << "cycle of " << n;
    const Graph h = with_fill(g, tri);
    EXPECT_TRUE(is_perfect_elimination_ordering(h, tri.order));
  }
}

TEST(McsM, OrderIsAPermutation) {
  support::SplitMix64 rng(4);
  Graph g = Graph::random(30, 0.2, rng);
  const Triangulation tri = mcs_m(g);
  std::set<Vertex> seen(tri.order.begin(), tri.order.end());
  EXPECT_EQ(seen.size(), 30u);
}

TEST(McsM, TriangulatedGraphIsChordalOnRandomInputs) {
  support::SplitMix64 rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 5 + rng.below(20);
    Graph g = Graph::random(n, 0.15 + 0.3 * rng.uniform(), rng);
    const Triangulation tri = mcs_m(g);
    const Graph h = with_fill(g, tri);
    // The elimination order must be perfect on H (H chordal by construction).
    EXPECT_TRUE(is_perfect_elimination_ordering(h, tri.order))
        << "iteration " << iter << " n=" << n;
  }
}

TEST(McsM, MinimalityNoFillEdgeIsRedundant) {
  // Minimal triangulation: removing any single fill edge must break
  // chordality (checked via: the same order is no longer perfect, and no
  // perfect order exists — we test the cheap necessary condition that H
  // minus the edge is not chordal by re-running MCS-M and expecting fill).
  support::SplitMix64 rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 6 + rng.below(10);
    Graph g = Graph::random(n, 0.3, rng);
    const Triangulation tri = mcs_m(g);
    const Graph h = with_fill(g, tri);
    for (const auto& [u, v] : tri.fill) {
      // Build H minus this fill edge.
      std::vector<std::pair<Vertex, Vertex>> edges;
      for (Vertex a = 0; a < n; ++a) {
        for (const Vertex b : h.neighbors(a)) {
          if (a < b && !(a == u && b == v)) edges.emplace_back(a, b);
        }
      }
      const Triangulation tri2 = mcs_m(Graph::from_edges(n, std::move(edges)));
      EXPECT_FALSE(tri2.fill.empty())
          << "removing fill edge (" << u << "," << v
          << ") left a chordal graph — triangulation was not minimal";
    }
  }
}

TEST(McsM, EmptyAndSingletonGraphs) {
  EXPECT_TRUE(mcs_m(Graph(0)).order.empty());
  const Triangulation t1 = mcs_m(Graph(1));
  EXPECT_EQ(t1.order.size(), 1u);
  EXPECT_TRUE(t1.fill.empty());
}

}  // namespace
}  // namespace parmem::graph
