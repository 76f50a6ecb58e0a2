#include "graph/graph.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/diagnostics.h"

namespace parmem::graph {
namespace {

TEST(Graph, AddEdgeIsSymmetricAndDeduplicated) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph::from_edges(2, {{1, 1}}), support::InternalError);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {2, 2}}), support::InternalError);
}

TEST(Graph, OutOfRangeRejected) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), support::InternalError);
  EXPECT_THROW(Graph::from_edges(2, {{5, 0}}), support::InternalError);
  const Graph g(2);
  EXPECT_THROW(g.has_edge(0, 5), support::InternalError);
}

TEST(Graph, NeighborsSorted) {
  const Graph g = Graph::from_edges(5, {{2, 4}, {2, 0}, {3, 2}});
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 3u);
  EXPECT_EQ(nb[2], 4u);
}

TEST(Graph, CliqueDetection) {
  Graph g = Graph::complete(4);
  EXPECT_TRUE(g.is_clique(std::vector<Vertex>{0, 1, 2, 3}));
  EXPECT_TRUE(g.is_clique(std::vector<Vertex>{}));
  EXPECT_TRUE(g.is_clique(std::vector<Vertex>{2}));
  Graph p = Graph::path(4);
  EXPECT_TRUE(p.is_clique(std::vector<Vertex>{1, 2}));
  EXPECT_FALSE(p.is_clique(std::vector<Vertex>{0, 1, 2}));
}

TEST(Graph, InducedSubgraphKeepsEdges) {
  Graph g = Graph::cycle(5);  // 0-1-2-3-4-0
  const std::vector<Vertex> keep{0, 1, 3};
  Graph sub = g.induced(keep);
  EXPECT_EQ(sub.vertex_count(), 3u);
  EXPECT_TRUE(sub.has_edge(0, 1));   // 0-1 survives
  EXPECT_FALSE(sub.has_edge(0, 2));  // 0-3 not an edge in C5
  EXPECT_FALSE(sub.has_edge(1, 2));  // 1-3 not an edge
}

TEST(Graph, InducedRejectsDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.induced(std::vector<Vertex>{0, 0}), support::InternalError);
}

TEST(Graph, ComponentsOfDisconnectedGraph) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}, {3, 4}});
  const std::vector<bool> alive(6, true);  // {0,1}, {2,3,4}, {5}
  EXPECT_EQ(g.component_of(1, alive), (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(g.component_of(4, alive), (std::vector<Vertex>{2, 3, 4}));
  EXPECT_EQ(g.component_of(5, alive), (std::vector<Vertex>{5}));
}

TEST(Graph, ComponentOfRespectsAliveMask) {
  Graph g = Graph::path(5);  // 0-1-2-3-4
  std::vector<bool> alive(5, true);
  alive[2] = false;  // cut the path
  EXPECT_EQ(g.component_of(0, alive), (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(g.component_of(4, alive), (std::vector<Vertex>{3, 4}));
}

TEST(Graph, ShapeConstructors) {
  EXPECT_EQ(Graph::complete(5).edge_count(), 10u);
  EXPECT_EQ(Graph::cycle(6).edge_count(), 6u);
  EXPECT_EQ(Graph::path(6).edge_count(), 5u);
  EXPECT_THROW(Graph::cycle(2), support::InternalError);
}

TEST(Graph, SortPairsMatchesComparisonSort) {
  support::SplitMix64 rng(5);
  for (const std::size_t n : {1u, 2u, 37u, 300u}) {
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (std::size_t i = 0; i < 4 * n + 3; ++i) {
      const auto v = static_cast<Vertex>(rng.below(n));
      const auto u = static_cast<Vertex>(rng.below(n));
      pairs.emplace_back(u, v);
    }
    auto expect = pairs;
    std::sort(expect.begin(), expect.end());
    sort_pairs(pairs, n);
    EXPECT_EQ(pairs, expect) << "n = " << n;
  }
  std::vector<std::pair<Vertex, Vertex>> none;
  sort_pairs(none, 0);
  EXPECT_TRUE(none.empty());
  std::vector<std::pair<Vertex, Vertex>> out_of_range{{0, 3}};
  EXPECT_THROW(sort_pairs(out_of_range, 3), support::InternalError);
}

TEST(Graph, FromSortedEdgesMatchesIncrementalBuild) {
  // from_edges over shuffled, reversed and repeated copies of a random edge
  // list lays out the same rows as from_sorted_edges over the clean list.
  support::SplitMix64 rng(11);
  for (const std::size_t n : {2u, 9u, 50u, 300u}) {
    std::vector<std::pair<Vertex, Vertex>> sorted;
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        if (rng.uniform() < 0.15) sorted.emplace_back(u, v);
      }
    }
    std::vector<std::pair<Vertex, Vertex>> messy;
    for (const auto& [u, v] : sorted) {
      const std::size_t repeats = 1 + rng.below(3);
      for (std::size_t r = 0; r < repeats; ++r) {
        if (rng.below(2) == 0) {
          messy.emplace_back(u, v);
        } else {
          messy.emplace_back(v, u);
        }
      }
    }
    for (std::size_t i = messy.size(); i > 1; --i) {
      std::swap(messy[i - 1], messy[rng.below(i)]);
    }
    const Graph a = Graph::from_sorted_edges(n, sorted);
    const Graph b = Graph::from_edges(n, messy);
    EXPECT_EQ(b.edge_count(), sorted.size()) << "n = " << n;
    EXPECT_EQ(b.neighbor_array_size(), a.neighbor_array_size());
    for (Vertex u = 0; u < n; ++u) {
      const auto ra = a.neighbors(u);
      const auto rb = b.neighbors(u);
      ASSERT_EQ(ra.size(), rb.size()) << "n = " << n << ", u = " << u;
      EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()));
      EXPECT_EQ(b.neighbor_base(u), a.neighbor_base(u));
    }
  }
}

TEST(Graph, NeighborBaseIndexesTheFlatArray) {
  support::SplitMix64 rng(13);
  const Graph g = Graph::random(30, 0.3, rng);
  EXPECT_EQ(g.neighbor_array_size(), 2 * g.edge_count());
  std::size_t expected = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.neighbor_base(v), expected);
    expected += g.degree(v);
  }
  EXPECT_EQ(expected, g.neighbor_array_size());
}

TEST(Graph, CsrHasEdgeAgreesOnLargeGraph) {
  // More than 8,192 vertices, sparse: CSR keeps rows only, and has_edge
  // binary-searches them from either endpoint.
  const std::size_t n = 8193;
  const Graph g = Graph::from_edges(
      n, {{0, 1}, {static_cast<Vertex>(n - 1), 0}, {17, 4242}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(0, static_cast<Vertex>(n - 1)));
  EXPECT_TRUE(g.has_edge(static_cast<Vertex>(n - 1), 0));
  EXPECT_TRUE(g.has_edge(4242, 17));
  EXPECT_TRUE(g.has_edge(17, 4242));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(17, 4243));
  EXPECT_FALSE(g.has_edge(4243, 17));
}

TEST(Graph, IsCliqueRejectsExactlyOneMissingEdge) {
  // K6 without the edge 2-4.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = u + 1; v < 6; ++v) {
      if (!(u == 2 && v == 4)) edges.emplace_back(u, v);
    }
  }
  const Graph g = Graph::from_edges(6, std::move(edges));
  EXPECT_FALSE(g.is_clique(std::vector<Vertex>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(g.is_clique(std::vector<Vertex>{4, 0, 2}));  // unsorted
  EXPECT_FALSE(g.is_clique(std::vector<Vertex>{2, 4}));
  EXPECT_TRUE(g.is_clique(std::vector<Vertex>{0, 1, 3, 4, 5}));
  EXPECT_TRUE(g.is_clique(std::vector<Vertex>{5, 3, 2, 1, 0}));
}

TEST(Graph, RandomGraphRespectsProbabilityBounds) {
  support::SplitMix64 rng(1);
  Graph empty = Graph::random(20, 0.0, rng);
  EXPECT_EQ(empty.edge_count(), 0u);
  Graph full = Graph::random(20, 1.0, rng);
  EXPECT_EQ(full.edge_count(), 190u);
  Graph half = Graph::random(40, 0.5, rng);
  EXPECT_GT(half.edge_count(), 250u);
  EXPECT_LT(half.edge_count(), 530u);
}

}  // namespace
}  // namespace parmem::graph
