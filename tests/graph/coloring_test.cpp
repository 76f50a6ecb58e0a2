#include "graph/coloring.h"

#include <gtest/gtest.h>

#include <vector>

namespace parmem::graph {
namespace {

TEST(Coloring, ValidityChecker) {
  Graph g = Graph::path(3);
  EXPECT_TRUE(is_valid_coloring(g, {0, 1, 0}, 2));
  EXPECT_FALSE(is_valid_coloring(g, {0, 0, 1}, 2));   // adjacent same color
  EXPECT_FALSE(is_valid_coloring(g, {0, 2, 0}, 2));   // color out of range
  EXPECT_TRUE(is_valid_coloring(g, {0, kUncolored, 0}, 2));  // partial OK
  EXPECT_FALSE(is_valid_coloring(g, {0, 1}, 2));      // wrong size
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
  // The smallest k that exact_color accepts is the chromatic number.
  const auto chromatic_number = [](const Graph& g) {
    std::size_t k = 0;
    while (!exact_color(g, k).has_value()) ++k;
    return k;
  };
  EXPECT_EQ(chromatic_number(Graph(0)), 0u);
  EXPECT_EQ(chromatic_number(Graph(3)), 1u);          // no edges
  EXPECT_EQ(chromatic_number(Graph::path(5)), 2u);
  EXPECT_EQ(chromatic_number(Graph::cycle(5)), 3u);
  EXPECT_EQ(chromatic_number(Graph::cycle(6)), 2u);
  EXPECT_EQ(chromatic_number(Graph::complete(5)), 5u);
}

}  // namespace
}  // namespace parmem::graph
