#include "graph/dot.h"

#include <gtest/gtest.h>

namespace parmem::graph {
namespace {

TEST(Dot, EmitsVerticesAndEdges) {
  Graph g = Graph::path(3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
  EXPECT_EQ(dot.find("n0 -- n2"), std::string::npos);
}

TEST(Dot, EachEdgeEmittedOnce) {
  Graph g = Graph::complete(4);
  const std::string dot = to_dot(g);
  std::size_t count = 0, pos = 0;
  while ((pos = dot.find(" -- ", pos)) != std::string::npos) {
    ++count;
    pos += 4;
  }
  EXPECT_EQ(count, 6u);
}

TEST(Dot, CustomLabelsAndEdgeLabels) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  DotOptions o;
  o.label = [](Vertex v) {
    return std::string("V").append(std::to_string(v + 1));
  };
  o.edge_label = [](Vertex, Vertex) { return "7"; };
  const std::string dot = to_dot(g, o);
  EXPECT_NE(dot.find("label=\"V1\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"7\""), std::string::npos);
}

TEST(Dot, ColoringControlsStyle) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  Coloring c{0, 1, kUncolored};
  DotOptions o;
  o.coloring = &c;
  const std::string dot = to_dot(g, o);
  EXPECT_NE(dot.find("style=filled"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace parmem::graph
