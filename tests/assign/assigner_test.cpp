#include "assign/assigner.h"

#include <gtest/gtest.h>

#include "assign/verify.h"
#include "support/budget.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"

namespace parmem::assign {
namespace {

using ir::AccessStream;

TEST(Assigner, EmptyStream) {
  AccessStream s;
  s.value_count = 0;
  const auto r = assign_modules(s, {});
  EXPECT_EQ(r.stats.values_used, 0u);
  EXPECT_TRUE(verify_assignment(s, r).ok());
}

TEST(Assigner, SingleValueGetsOneCopy) {
  const auto s = AccessStream::from_tuples(1, {{0}});
  const auto r = assign_modules(s, {});
  EXPECT_EQ(r.stats.values_used, 1u);
  EXPECT_EQ(r.stats.single_copy, 1u);
  EXPECT_TRUE(verify_assignment(s, r).ok());
}

TEST(Assigner, DisjointPairsShareNoModulePressure) {
  const auto s = AccessStream::from_tuples(6, {{0, 1}, {2, 3}, {4, 5}});
  AssignOptions o;
  o.module_count = 2;
  const auto r = assign_modules(s, o);
  EXPECT_TRUE(verify_assignment(s, r).ok());
  EXPECT_EQ(r.stats.multi_copy, 0u);
}

TEST(Assigner, Stor2UsesRegionStructure) {
  // Values 0,1 are global (appear in both regions); 2..5 are local.
  AccessStream s = AccessStream::from_tuples(
      6, {{0, 1, 2}, {0, 2, 3}, {1, 4, 5}, {0, 1, 4}});
  s.tuples[0].region = 0;
  s.tuples[1].region = 0;
  s.tuples[2].region = 1;
  s.tuples[3].region = 1;
  s.global[0] = s.global[1] = true;
  AssignOptions o;
  o.module_count = 4;
  o.strategy = Strategy::kStor2;
  const auto r = assign_modules(s, o);
  EXPECT_TRUE(verify_assignment(s, r).ok());
}

TEST(Assigner, Stor3WindowsKeepEarlierBindings) {
  const auto s = AccessStream::from_tuples(
      6, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}});
  AssignOptions o;
  o.module_count = 4;
  o.strategy = Strategy::kStor3;
  o.stor3_windows = 2;
  const auto r = assign_modules(s, o);
  EXPECT_TRUE(verify_assignment(s, r).ok());
}

TEST(Assigner, Stor3MoreWindowsStillConflictFree) {
  const auto s = AccessStream::from_tuples(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}});
  for (const std::size_t w : {1u, 2u, 3u, 4u, 8u}) {
    AssignOptions o;
    o.module_count = 3;
    o.strategy = Strategy::kStor3;
    o.stor3_windows = w;
    const auto r = assign_modules(s, o);
    EXPECT_TRUE(verify_assignment(s, r).ok()) << "windows=" << w;
  }
}

TEST(Assigner, NonDuplicatableValuesAreNeverReplicated) {
  AccessStream s = AccessStream::from_tuples(
      4, {{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}});
  s.duplicatable.assign(4, false);
  AssignOptions o;
  o.module_count = 3;
  const auto r = assign_modules(s, o);
  const auto report = verify_assignment(s, r);
  EXPECT_TRUE(report.illegal_duplicates.empty());
  // K4 into 3 modules without duplication must leave residual conflicts.
  EXPECT_FALSE(report.conflicting_tuples.empty());
  EXPECT_EQ(r.stats.residual_conflict_tuples,
            report.conflicting_tuples.size());
  EXPECT_GE(r.stats.forced, 1u);
}

TEST(Assigner, MixedDuplicatabilityResolvesViaTheFlexibleValue) {
  AccessStream s = AccessStream::from_tuples(
      4, {{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}});
  s.duplicatable = {false, false, false, true};
  AssignOptions o;
  o.module_count = 3;
  const auto r = assign_modules(s, o);
  const auto report = verify_assignment(s, r);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(copy_count(r.placement[3]), 1u);
}

TEST(Assigner, DeterministicForFixedSeed) {
  const auto s = AccessStream::from_tuples(
      6, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {0, 4, 5}});
  AssignOptions o;
  o.module_count = 3;
  o.seed = 99;
  const auto r1 = assign_modules(s, o);
  const auto r2 = assign_modules(s, o);
  EXPECT_EQ(r1.placement, r2.placement);
}

TEST(Assigner, StatsAreConsistent) {
  const auto s = AccessStream::from_tuples(
      5, {{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 2, 4}, {1, 2, 4}, {0, 3, 4}});
  AssignOptions o;
  o.module_count = 3;
  const auto r = assign_modules(s, o);
  EXPECT_EQ(r.stats.single_copy + r.stats.multi_copy, r.stats.values_used);
  std::size_t copies = 0;
  for (const ModuleSet m : r.placement) copies += copy_count(m);
  EXPECT_EQ(copies, r.stats.total_copies);
}

TEST(Assigner, TupleWiderThanModulesSkipsTheEnumerator) {
  // 17 duplicatable values in one tuple cannot sit in 16 distinct modules,
  // so the Fig. 6 enumerator can never reach a leaf. Without the pigeonhole
  // gate it walks ~16! nodes and trips a 10^6-step budget; with it the
  // compile stays at full effort and spends almost nothing of the budget.
  std::vector<ir::ValueId> wide(17);
  for (ir::ValueId v = 0; v < 17; ++v) wide[v] = v;
  const auto s = AccessStream::from_tuples(17, {wide});
  for (const DupMethod method : {DupMethod::kHittingSet,
                                 DupMethod::kBacktracking}) {
    support::Budget budget(support::BudgetSpec{0, 1'000'000});
    AssignOptions o;
    o.module_count = 16;
    o.method = method;
    o.budget = &budget;
    const auto r = assign_modules(s, o);
    EXPECT_FALSE(r.budget_exhausted) << dup_method_name(method);
    EXPECT_EQ(r.tier, AssignTier::kHeuristic) << dup_method_name(method);
    EXPECT_EQ(r.stats.residual_conflict_tuples, 1u)
        << dup_method_name(method);
  }
}

// residual_conflict_tuples re-tests only the tuples the passes reported;
// it must equal a full recount of the final placement. The seeded streams
// mark some values mutable so they collide for good, and every fourth
// compile runs on a step budget small enough to trip mid-duplication.
TEST(Assigner, ResidualCountEqualsFullRecount) {
  support::SplitMix64 rng(0x7e5d);
  std::size_t residual_compiles = 0;
  std::size_t capped = 0;  // compiles that ran the capped fix-up
  for (std::size_t i = 0; i < 96; ++i) {
    workloads::StreamGenOptions g;
    g.value_count = 24 + rng.below(80);
    g.tuple_count = g.value_count * (1 + rng.below(3));
    g.max_width = 3 + rng.below(3);
    g.region_count = 1 + rng.below(4);
    g.locality_window = rng.below(2) == 0 ? 0 : 6 + rng.below(20);
    AccessStream s = workloads::random_stream(g, rng);
    for (ir::ValueId v = 0; v < s.value_count; ++v) {
      if (rng.below(5) == 0) s.duplicatable[v] = false;
    }
    AssignOptions o;
    o.module_count = 2 + rng.below(3);
    o.strategy = static_cast<Strategy>(i % 3);
    o.method = (i / 3) % 2 == 0 ? DupMethod::kHittingSet
                                : DupMethod::kBacktracking;
    o.stor3_windows = 2 + rng.below(3);
    o.stor2_informed_stage1 = rng.below(2) == 0;
    o.seed = rng.next();
    support::Budget budget(support::BudgetSpec{0, 5 + rng.below(150)});
    if (i % 4 == 3) o.budget = &budget;
    const auto r = assign_modules(s, o);
    EXPECT_EQ(r.stats.residual_conflict_tuples,
              verify_assignment(s, r).conflicting_tuples.size())
        << "stream " << i;
    residual_compiles += r.stats.residual_conflict_tuples > 0 ? 1 : 0;
    capped += r.tier >= AssignTier::kBacktrackCap ? 1 : 0;
  }
  EXPECT_GT(residual_compiles, 20u) << capped;
  EXPECT_GT(capped, 5u) << residual_compiles;
}

TEST(Assigner, RejectsBadOptions) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  AssignOptions o;
  o.module_count = 0;
  EXPECT_THROW(assign_modules(s, o), support::InternalError);
}

}  // namespace
}  // namespace parmem::assign
