#include "graph/coloring.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>


namespace parmem::graph {
namespace {

std::vector<Vertex> identity_order(std::size_t n) {
  std::vector<Vertex> o(n);
  std::iota(o.begin(), o.end(), 0);
  return o;
}

TEST(Coloring, ValidityChecker) {
  Graph g = Graph::path(3);
  EXPECT_TRUE(is_valid_coloring(g, {0, 1, 0}, 2));
  EXPECT_FALSE(is_valid_coloring(g, {0, 0, 1}, 2));   // adjacent same color
  EXPECT_FALSE(is_valid_coloring(g, {0, 2, 0}, 2));   // color out of range
  EXPECT_TRUE(is_valid_coloring(g, {0, kUncolored, 0}, 2));  // partial OK
  EXPECT_FALSE(is_valid_coloring(g, {0, 1}, 2));      // wrong size
}

TEST(Coloring, FirstFitColorsBipartiteWithTwo) {
  Graph g = Graph::cycle(6);
  const auto c = first_fit(g, 2, identity_order(6));
  EXPECT_TRUE(is_valid_coloring(g, c, 2));
  for (const auto x : c) EXPECT_NE(x, kUncolored);
}

TEST(Coloring, FirstFitLeavesUncolorableVertices) {
  Graph g = Graph::complete(4);
  const auto c = first_fit(g, 3, identity_order(4));
  EXPECT_TRUE(is_valid_coloring(g, c, 3));
  int uncolored = 0;
  for (const auto x : c) uncolored += (x == kUncolored);
  EXPECT_EQ(uncolored, 1);
}

TEST(Coloring, DsaturOptimalOnOddCycle) {
  Graph g = Graph::cycle(7);
  const auto c = dsatur(g, 3);
  EXPECT_TRUE(is_valid_coloring(g, c, 3));
  for (const auto x : c) EXPECT_NE(x, kUncolored);
}

TEST(Coloring, ExactColorFindsAndRefutes) {
  Graph g = Graph::cycle(5);  // chromatic number 3
  EXPECT_FALSE(exact_color(g, 2).has_value());
  const auto c = exact_color(g, 3);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(is_valid_coloring(g, *c, 3));
  for (const auto x : *c) EXPECT_NE(x, kUncolored);
}

TEST(Coloring, ExactColorRespectsPrecoloring) {
  Graph g = Graph::path(3);
  Coloring fixed(3, kUncolored);
  fixed[0] = 1;
  fixed[2] = 1;
  const auto c = exact_color(g, 2, fixed);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 1);
  EXPECT_EQ((*c)[2], 1);
  EXPECT_EQ((*c)[1], 0);
}

TEST(Coloring, ExactColorRejectsInvalidPrecoloring) {
  Graph g = Graph::path(2);
  Coloring fixed{0, 0};
  EXPECT_THROW(exact_color(g, 2, fixed), support::InternalError);
}

TEST(Coloring, ChromaticNumbers) {
  EXPECT_EQ(chromatic_number(Graph(0)), 0u);
  EXPECT_EQ(chromatic_number(Graph(3)), 1u);          // no edges
  EXPECT_EQ(chromatic_number(Graph::path(5)), 2u);
  EXPECT_EQ(chromatic_number(Graph::cycle(5)), 3u);
  EXPECT_EQ(chromatic_number(Graph::cycle(6)), 2u);
  EXPECT_EQ(chromatic_number(Graph::complete(5)), 5u);
}

TEST(Coloring, ComponentsColorLikeWholeGraph) {
  support::SplitMix64 rng(77);
  for (int iter = 0; iter < 10; ++iter) {
    // A deliberately disconnected graph: several random blobs side by side.
    Graph g(0);
    const int blobs = 2 + static_cast<int>(rng.below(3));
    std::vector<Graph> parts;
    std::size_t total = 0;
    for (int b = 0; b < blobs; ++b) {
      parts.push_back(Graph::random(3 + rng.below(6), 0.5, rng));
      total += parts.back().vertex_count();
    }
    g = Graph(total);
    std::size_t base = 0;
    for (const Graph& p : parts) {
      for (Vertex u = 0; u < p.vertex_count(); ++u) {
        for (const Vertex v : p.neighbors(u)) {
          if (u < v) g.add_edge(base + u, base + v);
        }
      }
      base += p.vertex_count();
    }

    const std::size_t k = 4;
    const auto by_component = dsatur_components(g, k);
    EXPECT_TRUE(is_valid_coloring(g, by_component, k));
    // DSATUR's picks inside one component never look at another, so the
    // per-component runs reproduce the whole-graph run.
    EXPECT_EQ(by_component, dsatur(g, k)) << "iter " << iter;
  }
}

TEST(Coloring, HeuristicsNeverBeatExact) {
  support::SplitMix64 rng(31);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t n = 4 + rng.below(10);
    Graph g = Graph::random(n, 0.4, rng);
    const std::size_t chi = chromatic_number(g);
    // DSATUR with chi colors must produce a valid (possibly partial)
    // coloring; with chi colors a full coloring exists, and DSATUR may or
    // may not find it, but its result must always be valid.
    const auto d = dsatur(g, chi);
    EXPECT_TRUE(is_valid_coloring(g, d, chi));
    // With n colors every heuristic fully colors.
    const auto full = dsatur(g, n);
    for (const auto x : full) EXPECT_NE(x, kUncolored);
  }
}

}  // namespace
}  // namespace parmem::graph
