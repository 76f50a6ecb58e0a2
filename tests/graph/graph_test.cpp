#include "graph/graph.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/diagnostics.h"

namespace parmem::graph {
namespace {

TEST(Graph, AddEdgeIsSymmetricAndDeduplicated) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // duplicate
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), support::InternalError);
}

TEST(Graph, OutOfRangeRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), support::InternalError);
  EXPECT_THROW(g.has_edge(0, 5), support::InternalError);
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
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
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const auto comps = g.components();
  ASSERT_EQ(comps.size(), 3u);  // {0,1}, {2,3,4}, {5}
  EXPECT_EQ(comps[0], (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<Vertex>{2, 3, 4}));
  EXPECT_EQ(comps[2], (std::vector<Vertex>{5}));
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

TEST(Graph, FinalizePreservesEveryQuery) {
  support::SplitMix64 rng(7);
  Graph g = Graph::random(60, 0.2, rng);
  Graph f = g;
  f.finalize();
  ASSERT_TRUE(f.finalized());
  f.finalize();  // idempotent
  ASSERT_TRUE(f.finalized());
  EXPECT_EQ(f.vertex_count(), g.vertex_count());
  EXPECT_EQ(f.edge_count(), g.edge_count());
  for (Vertex u = 0; u < g.vertex_count(); ++u) {
    EXPECT_EQ(f.degree(u), g.degree(u));
    const auto a = g.neighbors(u);
    const auto b = f.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      EXPECT_EQ(f.has_edge(u, v), g.has_edge(u, v));
    }
  }
}

TEST(Graph, SortPairsMatchesComparisonSort) {
  support::SplitMix64 rng(5);
  for (const std::size_t n : {1u, 2u, 37u, 300u}) {
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (std::size_t i = 0; i < 4 * n + 3; ++i) {
      pairs.emplace_back(static_cast<Vertex>(rng.below(n)),
                         static_cast<Vertex>(rng.below(n)));
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
  support::SplitMix64 rng(11);
  Graph g = Graph::random(50, 0.15, rng);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < g.vertex_count(); ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  std::sort(edges.begin(), edges.end());
  const Graph b = Graph::from_sorted_edges(g.vertex_count(), edges);
  EXPECT_TRUE(b.finalized());
  EXPECT_EQ(b.edge_count(), g.edge_count());
  for (Vertex u = 0; u < g.vertex_count(); ++u) {
    const auto a = g.neighbors(u);
    const auto c = b.neighbors(u);
    ASSERT_EQ(a.size(), c.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin()));
  }
}

TEST(Graph, AddEdgeAfterFinalizeDropsBackToBuildForm) {
  Graph g = Graph::cycle(6);
  g.finalize();
  ASSERT_TRUE(g.finalized());
  g.add_edge(0, 3);
  EXPECT_FALSE(g.finalized());
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(5, 0));  // pre-existing edges survive the round trip
  g.finalize();
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_EQ(g.neighbors(0).size(), 3u);
}

TEST(Graph, NeighborBaseIndexesTheFlatArray) {
  support::SplitMix64 rng(13);
  Graph g = Graph::random(30, 0.3, rng);
  g.finalize();
  EXPECT_EQ(g.neighbor_array_size(), 2 * g.edge_count());
  std::size_t expected = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    EXPECT_EQ(g.neighbor_base(v), expected);
    expected += g.degree(v);
  }
  EXPECT_EQ(expected, g.neighbor_array_size());
}

TEST(Graph, CsrHasEdgeAgreesOnLargeGraph) {
  // More than 8,192 vertices, sparse: finalize() packs CSR rows only, and
  // has_edge binary-searches them to answer as the build form does.
  const std::size_t n = 8193;
  Graph g(n);
  g.add_edge(0, 1);
  g.add_edge(0, static_cast<Vertex>(n - 1));
  g.add_edge(17, 4242);
  Graph f = g;
  f.finalize();
  EXPECT_TRUE(f.has_edge(0, 1));
  EXPECT_TRUE(f.has_edge(static_cast<Vertex>(n - 1), 0));
  EXPECT_TRUE(f.has_edge(4242, 17));
  EXPECT_FALSE(f.has_edge(1, 2));
  EXPECT_FALSE(f.has_edge(17, 4243));
  for (const auto& [u, v] : std::vector<std::pair<Vertex, Vertex>>{
           {0, 1}, {1, 0}, {0, 8192}, {17, 4242}, {1, 2}, {17, 4243}}) {
    EXPECT_EQ(f.has_edge(u, v), g.has_edge(u, v)) << u << "-" << v;
  }
}

TEST(Graph, IsCliqueRejectsExactlyOneMissingEdge) {
  // K6 without the edge 2-4, in both representations.
  Graph g(6);
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = u + 1; v < 6; ++v) {
      if (!(u == 2 && v == 4)) g.add_edge(u, v);
    }
  }
  Graph f = g;
  f.finalize();
  for (const Graph* h : {&g, &f}) {
    EXPECT_FALSE(h->is_clique(std::vector<Vertex>{0, 1, 2, 3, 4, 5}));
    EXPECT_FALSE(h->is_clique(std::vector<Vertex>{4, 0, 2}));  // unsorted
    EXPECT_FALSE(h->is_clique(std::vector<Vertex>{2, 4}));
    EXPECT_TRUE(h->is_clique(std::vector<Vertex>{0, 1, 3, 4, 5}));
    EXPECT_TRUE(h->is_clique(std::vector<Vertex>{5, 3, 2, 1, 0}));
  }
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
