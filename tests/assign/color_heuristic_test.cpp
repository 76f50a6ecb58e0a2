#include "assign/color_heuristic.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/coloring.h"
#include "support/budget.h"

namespace parmem::assign {
namespace {

using ir::AccessStream;

/// No two adjacent assigned vertices share a module.
void expect_valid(const ConflictGraph& cg, const ColorResult& r,
                  std::size_t k) {
  graph::Coloring c(cg.vertex_count(), graph::kUncolored);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) c[v] = r.module[v];
  EXPECT_TRUE(graph::is_valid_coloring(cg.graph(), c, k));
}

TEST(ColorHeuristic, TriangleWithThreeModulesColorsAll) {
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  const auto cg = ConflictGraph::build(s);
  const auto r = color_conflict_graph(cg, {.module_count = 3});
  EXPECT_TRUE(r.unassigned.empty());
  expect_valid(cg, r, 3);
}

TEST(ColorHeuristic, CliqueBeyondModulesRemovesExactlyTheExcess) {
  // K5 with 3 modules: at least 2 removals; the heuristic should remove
  // exactly 2 (a clique colors greedily until modules run out).
  const auto s = AccessStream::from_tuples(
      5, {{0, 1, 2, 3, 4}});  // one 5-wide instruction: K5 conflicts
  const auto cg = ConflictGraph::build(s);
  const auto r = color_conflict_graph(cg, {.module_count = 3});
  EXPECT_EQ(r.unassigned.size(), 2u);
  expect_valid(cg, r, 3);
}

TEST(ColorHeuristic, LowDegreeNodesNeverRemoved) {
  // Star: center conflicts with 6 leaves pairwise (leaf degree 1 < k).
  std::vector<std::vector<ir::ValueId>> tuples;
  for (ir::ValueId leaf = 1; leaf <= 6; ++leaf) tuples.push_back({0, leaf});
  const auto s = AccessStream::from_tuples(7, tuples);
  const auto cg = ConflictGraph::build(s);
  const auto r = color_conflict_graph(cg, {.module_count = 2});
  EXPECT_TRUE(r.unassigned.empty());
  expect_valid(cg, r, 2);
}

TEST(ColorHeuristic, PrecoloredVerticesKeepTheirModules) {
  const auto s = AccessStream::from_tuples(3, {{0, 1}, {1, 2}});
  const auto cg = ConflictGraph::build(s);
  std::vector<std::int32_t> pre(cg.vertex_count(), kUnassignedModule);
  pre[static_cast<std::size_t>(cg.vertex_of(1))] = 2;
  const auto r = color_conflict_graph(cg, {.module_count = 3}, pre);
  EXPECT_EQ(r.module[static_cast<std::size_t>(cg.vertex_of(1))], 2);
  expect_valid(cg, r, 3);
}

TEST(ColorHeuristic, NeverRemoveForcesAssignment) {
  // K4 with 3 modules; value 3 is non-duplicable: it must receive a module
  // anyway (forced) while some other vertex may be removed.
  const auto s = AccessStream::from_tuples(4, {{0, 1, 2, 3}});
  const auto cg = ConflictGraph::build(s);
  std::vector<bool> never(cg.vertex_count(), true);
  const auto r =
      color_conflict_graph(cg, {.module_count = 3}, {}, never);
  EXPECT_TRUE(r.unassigned.empty());
  EXPECT_EQ(r.forced.size(), 1u);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    EXPECT_GE(r.module[v], 0);
  }
}

TEST(ColorHeuristic, LeastLoadedBalancesModules) {
  // 8 independent values (no conflicts): least-loaded spreads them evenly
  // over 4 modules. The pick rule balances within one sweep; with atoms on,
  // each isolated value would be its own atom, and every atom starts from
  // the same load snapshot.
  std::vector<std::vector<ir::ValueId>> tuples;
  for (ir::ValueId v = 0; v < 8; ++v) tuples.push_back({v});
  const auto s = AccessStream::from_tuples(8, tuples);
  const auto cg = ConflictGraph::build(s);
  const auto r = color_conflict_graph(
      cg, {.module_count = 4,
           .use_atoms = false,
           .pick = ModulePick::kLeastLoaded});
  std::vector<int> load(4, 0);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    ASSERT_GE(r.module[v], 0);
    ++load[static_cast<std::size_t>(r.module[v])];
  }
  for (const int l : load) EXPECT_EQ(l, 2);
}

TEST(ColorHeuristic, AtomsOnAndOffAgreeOnValidity) {
  support::SplitMix64 rng(17);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t nv = 6 + rng.below(12);
    std::vector<std::vector<ir::ValueId>> tuples;
    const std::size_t nt = 4 + rng.below(20);
    for (std::size_t t = 0; t < nt; ++t) {
      std::vector<ir::ValueId> ops;
      const std::size_t w = 2 + rng.below(3);
      for (std::size_t i = 0; i < w; ++i) {
        ops.push_back(static_cast<ir::ValueId>(rng.below(nv)));
      }
      tuples.push_back(ops);
    }
    const auto s = AccessStream::from_tuples(nv, tuples);
    const auto cg = ConflictGraph::build(s);
    for (const bool atoms : {true, false}) {
      const auto r = color_conflict_graph(
          cg, {.module_count = 4, .use_atoms = atoms});
      expect_valid(cg, r, 4);
    }
  }
}

TEST(ColorHeuristic, ChargesOneStepPerDecidedVertex) {
  // A dense graph, so most vertices see several neighbour updates before
  // they are decided; a budget that never trips must still read exactly
  // one step per vertex after the sweep.
  support::SplitMix64 rng(23);
  std::vector<std::vector<ir::ValueId>> tuples;
  for (int t = 0; t < 60; ++t) {
    std::vector<ir::ValueId> ops;
    while (ops.size() < 4) {
      const auto v = static_cast<ir::ValueId>(rng.below(40));
      if (std::find(ops.begin(), ops.end(), v) == ops.end()) ops.push_back(v);
    }
    tuples.push_back(ops);
  }
  const auto s = AccessStream::from_tuples(40, tuples);
  const auto cg = ConflictGraph::build(s);
  support::Budget budget(support::BudgetSpec{0, 1'000'000});
  const auto r = color_conflict_graph(
      cg, {.module_count = 3, .use_atoms = false, .budget = &budget});
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_FALSE(r.unassigned.empty());
  EXPECT_EQ(budget.steps_used(), cg.vertex_count());
}

TEST(ColorHeuristic, RejectsBadModuleCount) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  const auto cg = ConflictGraph::build(s);
  EXPECT_THROW(color_conflict_graph(cg, {.module_count = 0}),
               support::InternalError);
  EXPECT_THROW(color_conflict_graph(cg, {.module_count = 64}),
               support::InternalError);
}

}  // namespace
}  // namespace parmem::assign
