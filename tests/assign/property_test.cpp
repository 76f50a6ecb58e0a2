// Property tests over randomized access streams: for every strategy and
// duplication method, the assignment must satisfy the paper's central
// invariant — no statically predictable conflict remains (I1) — plus the
// structural invariants I8 (no mutable value duplicated) and the k-copy
// bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "assign/assigner.h"
#include "assign/conflict_graph.h"
#include "assign/verify.h"
#include "support/rng.h"

namespace parmem::assign {
namespace {

using ir::AccessStream;

AccessStream random_stream(support::SplitMix64& rng, std::size_t value_count,
                           std::size_t tuple_count, std::size_t max_width,
                           std::size_t region_count) {
  std::vector<std::vector<ir::ValueId>> tuples;
  for (std::size_t t = 0; t < tuple_count; ++t) {
    // Width can never exceed the value universe (the sampling loop below
    // draws distinct values).
    const std::size_t w =
        std::min(value_count, 2 + rng.below(max_width - 1));
    std::vector<ir::ValueId> ops;
    while (ops.size() < w) {
      const auto v = static_cast<ir::ValueId>(rng.below(value_count));
      if (std::find(ops.begin(), ops.end(), v) == ops.end()) ops.push_back(v);
    }
    tuples.push_back(std::move(ops));
  }
  AccessStream s = AccessStream::from_tuples(value_count, tuples);
  // Assign contiguous region blocks and mark cross-region values global.
  std::vector<ir::RegionId> first_region(value_count, ir::kNoRegion);
  for (std::size_t t = 0; t < s.tuples.size(); ++t) {
    const auto r = static_cast<ir::RegionId>(t * region_count /
                                             std::max<std::size_t>(
                                                 s.tuples.size(), 1));
    s.tuples[t].region = r;
    for (const ir::ValueId v : s.tuples[t].operands) {
      if (first_region[v] == ir::kNoRegion) {
        first_region[v] = r;
      } else if (first_region[v] != r) {
        s.global[v] = true;
      }
    }
  }
  return s;
}

struct Config {
  Strategy strategy;
  DupMethod method;
  std::size_t module_count;
};

class AssignProperty : public ::testing::TestWithParam<Config> {};

TEST_P(AssignProperty, NoPredictableConflictSurvives) {
  const Config cfg = GetParam();
  support::SplitMix64 rng(0xfeedULL + cfg.module_count);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t nv = 4 + rng.below(30);
    const std::size_t nt = 2 + rng.below(40);
    const std::size_t width = std::min<std::size_t>(cfg.module_count, 2 + rng.below(4));
    const auto s =
        random_stream(rng, nv, nt, std::max<std::size_t>(width, 2), 3);

    AssignOptions o;
    o.module_count = cfg.module_count;
    o.strategy = cfg.strategy;
    o.method = cfg.method;
    o.seed = 1000 + static_cast<std::uint64_t>(iter);
    const AssignResult r = assign_modules(s, o);
    const auto report = verify_assignment(s, r);
    EXPECT_TRUE(report.ok())
        << "iter " << iter << ": " << report.conflicting_tuples.size()
        << " conflicting tuples, " << report.missing_values.size()
        << " missing values";
    for (const ModuleSet m : r.placement) {
      EXPECT_LE(copy_count(m), cfg.module_count);
    }
  }
}

TEST_P(AssignProperty, MutableValuesRespectSingleCopy) {
  const Config cfg = GetParam();
  support::SplitMix64 rng(0xabcdULL + cfg.module_count);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t nv = 6 + rng.below(20);
    auto s = random_stream(rng, nv, 3 + rng.below(25),
                           std::min<std::size_t>(cfg.module_count, 4), 2);
    // Make a random third of the values mutable.
    for (ir::ValueId v = 0; v < nv; ++v) {
      if (rng.below(3) == 0) s.duplicatable[v] = false;
    }
    AssignOptions o;
    o.module_count = cfg.module_count;
    o.strategy = cfg.strategy;
    o.method = cfg.method;
    const auto r = assign_modules(s, o);
    const auto report = verify_assignment(s, r);
    EXPECT_TRUE(report.illegal_duplicates.empty()) << "iter " << iter;
    EXPECT_TRUE(report.missing_values.empty()) << "iter " << iter;
    // Any residual conflict must be attributable to mutable values: the
    // non-duplicable operands of the tuple alone already fail the SDR test.
    for (const std::uint32_t ti : report.conflicting_tuples) {
      std::vector<ir::ValueId> fixed;
      for (const ir::ValueId v : s.tuples[ti].operands) {
        if (!s.duplicatable[v]) fixed.push_back(v);
      }
      EXPECT_FALSE(copies_admit_sdr(fixed, r.placement, cfg.module_count))
          << "tuple " << ti << " conflicts despite resolvable mutable core";
    }
  }
}

// Randomized access streams across k ∈ {2, 4, 8}: the verify.h invariants
// I1 (no statically predictable conflict survives) and I8 (no mutable value
// carries more than one copy) must hold for every strategy × method drawn.
// Failures name the seed so a violation replays with a one-line loop edit.
TEST(AssignPropertyRandomized, InvariantsHoldAcrossModuleCounts) {
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("k=" + std::to_string(k) + " seed=" + std::to_string(seed));
      support::SplitMix64 rng(seed * 0x2545f4914f6cdd1dULL + k);
      const std::size_t nv = 8 + rng.below(40);
      const std::size_t nt = 6 + rng.below(60);
      auto s = random_stream(rng, nv, nt,
                             std::max<std::size_t>(2, std::min(k, std::size_t{4})),
                             1 + rng.below(3));
      // A random quarter of the values is mutable — I8's subject matter.
      for (ir::ValueId v = 0; v < nv; ++v) {
        if (rng.below(4) == 0) s.duplicatable[v] = false;
      }

      AssignOptions o;
      o.module_count = k;
      o.strategy = static_cast<Strategy>(rng.below(3));
      o.method = static_cast<DupMethod>(rng.below(2));
      o.seed = seed;

      const AssignResult r = assign_modules(s, o);
      const auto report = verify_assignment(s, r);
      // I8 and well-formedness are unconditional.
      EXPECT_TRUE(report.illegal_duplicates.empty())
          << "mutable value duplicated (I8)";
      EXPECT_TRUE(report.missing_values.empty())
          << "accessed value lost all copies";
      // I1 may only fail where mutable operands alone already collide.
      for (const std::uint32_t ti : report.conflicting_tuples) {
        std::vector<ir::ValueId> fixed;
        for (const ir::ValueId v : s.tuples[ti].operands) {
          if (!s.duplicatable[v]) fixed.push_back(v);
        }
        EXPECT_FALSE(copies_admit_sdr(fixed, r.placement, k))
            << "tuple " << ti
            << " conflicts despite resolvable mutable core (I1)";
      }
      for (const ModuleSet m : r.placement) EXPECT_LE(copy_count(m), k);
    }
  }
}

// Independent conflict-freedom check for the Fig. 4 sweep: the coloring it
// returns is validated against a raw edge list recomputed directly from the
// tuples — no conflict-graph adjacency, no golden hashes. Two adjacent
// vertices may share a module only if one of them was *forced* (mutable
// value with no free module); every module index must be within the
// machine's module count; and every vertex must end either colored or in
// V_unassigned.
TEST(ColoringProperty, ConflictFreeAgainstRawEdgeList) {
  support::SplitMix64 rng(0x5bec);
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t nv = 24 + rng.below(60);
    const std::size_t nt = 30 + rng.below(120);
    auto s = random_stream(rng, nv, nt, 4, 3);
    for (ir::ValueId v = 0; v < nv; ++v) {
      if (rng.below(4) == 0) s.duplicatable[v] = false;
    }
    const std::size_t k = 2 + rng.below(7);

    // Raw edge list straight from the tuples.
    std::set<std::pair<ir::ValueId, ir::ValueId>> raw_edges;
    for (const auto& t : s.tuples) {
      for (std::size_t i = 0; i < t.operands.size(); ++i) {
        for (std::size_t j = i + 1; j < t.operands.size(); ++j) {
          const auto u = std::min(t.operands[i], t.operands[j]);
          const auto w = std::max(t.operands[i], t.operands[j]);
          if (u != w) raw_edges.emplace(u, w);
        }
      }
    }

    const ConflictGraph cg = ConflictGraph::build(s);
    const std::size_t n = cg.vertex_count();
    std::vector<bool> never_remove(n, false);
    for (graph::Vertex v = 0; v < n; ++v) {
      never_remove[v] = !s.duplicatable[cg.value_of(v)];
    }

    for (const bool use_atoms : {true, false}) {
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   " atoms=" + std::to_string(use_atoms));
      ColorOptions co;
      co.module_count = k;
      co.use_atoms = use_atoms;
      const ColorResult cr = color_conflict_graph(cg, co, {}, never_remove);
      ASSERT_EQ(cr.module.size(), n);

      std::vector<bool> forced(n, false);
      for (const graph::Vertex v : cr.forced) forced[v] = true;
      std::vector<bool> removed(n, false);
      for (const graph::Vertex v : cr.unassigned) removed[v] = true;

      for (graph::Vertex v = 0; v < n; ++v) {
        // Within the module count, and colored xor removed.
        EXPECT_GE(cr.module[v], kUnassignedModule);
        EXPECT_LT(cr.module[v], static_cast<std::int32_t>(k));
        EXPECT_EQ(cr.module[v] == kUnassignedModule, removed[v]);
      }
      for (const auto& [a, b] : raw_edges) {
        const auto va = cg.vertex_of(a);
        const auto vb = cg.vertex_of(b);
        ASSERT_TRUE(va >= 0 && vb >= 0);
        const auto u = static_cast<graph::Vertex>(va);
        const auto w = static_cast<graph::Vertex>(vb);
        if (cr.module[u] >= 0 && cr.module[u] == cr.module[w]) {
          EXPECT_TRUE(forced[u] || forced[w])
              << "values " << a << " and " << b
              << " share module " << cr.module[u] << " without a force";
        }
      }
    }
  }
}

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string n = strategy_name(info.param.strategy);
  n += "_";
  n += info.param.method == DupMethod::kBacktracking ? "bt" : "hs";
  n += "_k" + std::to_string(info.param.module_count);
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, AssignProperty,
    ::testing::Values(
        Config{Strategy::kStor1, DupMethod::kBacktracking, 4},
        Config{Strategy::kStor1, DupMethod::kHittingSet, 4},
        Config{Strategy::kStor2, DupMethod::kBacktracking, 4},
        Config{Strategy::kStor2, DupMethod::kHittingSet, 4},
        Config{Strategy::kStor3, DupMethod::kBacktracking, 4},
        Config{Strategy::kStor3, DupMethod::kHittingSet, 4},
        Config{Strategy::kStor1, DupMethod::kHittingSet, 8},
        Config{Strategy::kStor2, DupMethod::kHittingSet, 8},
        Config{Strategy::kStor3, DupMethod::kBacktracking, 8},
        Config{Strategy::kStor1, DupMethod::kBacktracking, 2}),
    config_name);

}  // namespace
}  // namespace parmem::assign
