#include "assign/conflict_graph.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace parmem::assign {
namespace {

using ir::AccessStream;

TEST(ConflictGraph, EdgesJoinCoOccurringValues) {
  const auto s = AccessStream::from_tuples(5, {{0, 1, 3}, {1, 2, 4}});
  const auto cg = ConflictGraph::build(s);
  EXPECT_EQ(cg.vertex_count(), 5u);
  const auto vx = [&](ir::ValueId v) {
    return static_cast<graph::Vertex>(cg.vertex_of(v));
  };
  EXPECT_TRUE(cg.graph().has_edge(vx(0), vx(1)));
  EXPECT_TRUE(cg.graph().has_edge(vx(1), vx(4)));
  EXPECT_FALSE(cg.graph().has_edge(vx(0), vx(2)));
  EXPECT_FALSE(cg.graph().has_edge(vx(3), vx(4)));
}

TEST(ConflictGraph, ConfCountsInstructions) {
  const auto s =
      AccessStream::from_tuples(3, {{0, 1}, {0, 1}, {0, 1, 2}, {1, 2}});
  const auto cg = ConflictGraph::build(s);
  const auto vx = [&](ir::ValueId v) {
    return static_cast<graph::Vertex>(cg.vertex_of(v));
  };
  EXPECT_EQ(cg.conf(vx(0), vx(1)), 3u);
  EXPECT_EQ(cg.conf(vx(1), vx(2)), 2u);
  EXPECT_EQ(cg.conf(vx(0), vx(2)), 1u);
  EXPECT_EQ(cg.conf_sum(vx(1)), 5u);
}

TEST(ConflictGraph, UnusedValuesGetNoVertex) {
  const auto s = AccessStream::from_tuples(10, {{2, 7}});
  const auto cg = ConflictGraph::build(s);
  EXPECT_EQ(cg.vertex_count(), 2u);
  EXPECT_EQ(cg.vertex_of(0), -1);
  EXPECT_GE(cg.vertex_of(2), 0);
}

TEST(ConflictGraph, GraphIsFinalizedAndWeightsParallelNeighbors) {
  const auto s =
      AccessStream::from_tuples(4, {{0, 1}, {0, 1}, {0, 2}, {1, 2, 3}});
  const auto cg = ConflictGraph::build(s);
  EXPECT_EQ(cg.graph().neighbor_array_size(), 2 * cg.graph().edge_count());
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    const auto nbrs = cg.neighbors(v);
    const auto wts = cg.conf_weights(v);
    ASSERT_EQ(nbrs.size(), wts.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(wts[i], cg.conf(v, nbrs[i]));
      sum += wts[i];
    }
    EXPECT_EQ(cg.conf_sum(v), sum);
  }
}

TEST(ConflictGraph, BuildFromInstsMatchesStreamBuild) {
  const auto s =
      AccessStream::from_tuples(6, {{0, 1, 2}, {2, 3}, {2, 3}, {4, 5, 0}});
  const auto a = ConflictGraph::build(s);
  std::vector<std::vector<ir::ValueId>> insts;
  for (const auto& t : s.tuples) insts.push_back(t.operands);
  const auto b = ConflictGraph::build_from_insts(s.value_count, insts);
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (graph::Vertex v = 0; v < a.vertex_count(); ++v) {
    EXPECT_EQ(a.value_of(v), b.value_of(v));
    const auto an = a.neighbors(v);
    const auto bn = b.neighbors(v);
    ASSERT_EQ(an.size(), bn.size());
    for (std::size_t i = 0; i < an.size(); ++i) {
      EXPECT_EQ(an[i], bn[i]);
      EXPECT_EQ(a.conf_weights(v)[i], b.conf_weights(v)[i]);
    }
    EXPECT_EQ(a.conf_sum(v), b.conf_sum(v));
  }
}

TEST(ConflictGraph, RepeatedOperandsCollapse) {
  // from_tuples dedupes {1,1,2} into {1,2}.
  const auto s = AccessStream::from_tuples(3, {{1, 1, 2}});
  ASSERT_EQ(s.tuples.size(), 1u);
  EXPECT_EQ(s.tuples[0].operands.size(), 2u);
  const auto cg = ConflictGraph::build(s);
  EXPECT_EQ(cg.graph().edge_count(), 1u);
}

}  // namespace
}  // namespace parmem::assign
