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
  Graph g(2);
  g.add_edge(0, 1);
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
  Graph g(3);
  g.add_edge(0, 1);
  Coloring c{0, 1, kUncolored};
  DotOptions o;
  o.coloring = &c;
  const std::string dot = to_dot(g, o);
  EXPECT_NE(dot.find("style=filled"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Dot, AtomsBecomeClusters) {
  // Two triangles sharing vertex 2 (chordal): two atoms.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(2, 4);
  const auto atoms = decompose_by_clique_separators(g);
  const std::string dot = atoms_to_dot(g, atoms);
  EXPECT_NE(dot.find("cluster_atom0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_atom1"), std::string::npos);
  // Separator vertex 2 appears in both clusters with distinct node names.
  EXPECT_NE(dot.find("a0_n2"), std::string::npos);
  EXPECT_NE(dot.find("a1_n2"), std::string::npos);
  // Separator marked with a double border.
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

}  // namespace
}  // namespace parmem::graph
