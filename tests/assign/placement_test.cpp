#include "assign/placement.h"

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "assign/placement_state.h"

namespace parmem::assign {
namespace {

using ir::AccessStream;

TEST(PlacementState, AddCopyTracksCounts) {
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  PlacementState st(s, 4);
  EXPECT_EQ(st.copies(0), 0u);
  EXPECT_TRUE(st.add_copy(0, 2));
  EXPECT_FALSE(st.add_copy(0, 2));  // duplicate
  EXPECT_TRUE(st.add_copy(0, 3));
  EXPECT_EQ(st.copies(0), 2u);
  EXPECT_EQ(st.total_copies(), 2u);
}

TEST(PlacementState, ConflictDetection) {
  const auto s = AccessStream::from_tuples(3, {{0, 1}, {1, 2}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  // 0 and 1 collide in tuple 0; 2 has no copy so tuple 1 also conflicts.
  EXPECT_FALSE(st.tuple_conflict_free(s.tuples[0]));
  EXPECT_EQ(st.conflicting_tuples().size(), 2u);
  st.add_copy(1, 1);  // second copy resolves the pair
  st.add_copy(2, 0);
  EXPECT_TRUE(st.tuple_conflict_free(s.tuples[0]));
  EXPECT_TRUE(st.tuple_conflict_free(s.tuples[1]));
  EXPECT_TRUE(st.conflicting_tuples().empty());
}

TEST(PlacementState, ExtraCopyFixesIsHypothetical) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  EXPECT_EQ(st.extra_copy_fixes({0, 1}, 1, module_bit(1)), module_bit(1));
  // The real state is unchanged.
  EXPECT_FALSE(st.combination_conflict_free({0, 1}));
}

TEST(PlacementState, ExtraCopyFixesMatchesTryingEachModule) {
  // Random copy sets over every module count: the one-matching answer must
  // equal adding the copy to a scratch state and testing for an SDR, one
  // candidate module at a time.
  support::SplitMix64 rng(11);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t k = 1 + rng.below(kMaxModules);
    const std::size_t width = 1 + rng.below(std::min<std::size_t>(k, 6) + 1);
    std::vector<ir::ValueId> ops(width);
    for (std::size_t i = 0; i < width; ++i) ops[i] = static_cast<ir::ValueId>(i);
    const auto s = AccessStream::from_tuples(width, {ops});
    PlacementState st(s, k);
    const std::uint64_t density = 1 + rng.below(3);
    for (const ir::ValueId u : ops) {
      for (std::uint32_t m = 0; m < k; ++m) {
        if (rng.below(k) < density) st.add_copy(u, m);
      }
    }
    const auto v = static_cast<ir::ValueId>(rng.below(width));
    const ModuleSet candidates = all_modules(k) & ~st.placement(v);
    ModuleSet expected = 0;
    for (std::uint32_t m = 0; m < k; ++m) {
      if (!holds(candidates, m)) continue;
      PlacementState trial = st;
      trial.add_copy(v, m);
      if (trial.combination_conflict_free(ops)) expected |= module_bit(m);
    }
    ASSERT_EQ(st.extra_copy_fixes(ops, v, candidates), expected)
        << "iteration " << iter << ", k " << k << ", width " << width;
  }
}

TEST(Placement, SingleConstrainedInstructionGetsTheOnlyFix) {
  // k=3; values 0,1 fixed in modules 0,1; value 2 (duplicable) must land in
  // module 2 to fix instruction {0,1,2}.
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  std::vector<bool> unassigned{false, false, true};
  support::SplitMix64 rng(1);
  const auto insts = std::vector<std::vector<ir::ValueId>>{{0, 1, 2}};
  std::vector<std::uint8_t> conflicting;
  mark_conflicting(st, insts, conflicting);
  EXPECT_EQ(place_copies(st, insts, {2}, unassigned, conflicting, rng), 1u);
  EXPECT_TRUE(holds(st.placement(2), 2));
  EXPECT_TRUE(st.combination_conflict_free({0, 1, 2}));
}

TEST(Placement, PrefersModuleResolvingMoreConflicts) {
  // Value 4 is duplicable and conflicts in two instructions; module 2 fixes
  // both, module 3 fixes only one. The heuristic must choose module 2.
  const auto s = AccessStream::from_tuples(5, {{0, 1, 4}, {2, 1, 4}});
  PlacementState st(s, 4);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  st.add_copy(2, 3);  // occupies module 3 in instruction 2
  std::vector<bool> unassigned{false, false, false, false, true};
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0, 1, 4}, {2, 1, 4}};
  std::vector<std::uint8_t> conflicting;
  mark_conflicting(st, insts, conflicting);
  place_copies(st, insts, {4}, unassigned, conflicting, rng);
  EXPECT_TRUE(holds(st.placement(4), 2));
  EXPECT_TRUE(st.combination_conflict_free({0, 1, 4}));
  EXPECT_TRUE(st.combination_conflict_free({2, 1, 4}));
}

TEST(Placement, ValueAlreadyEverywhereIsSkipped) {
  const auto s = AccessStream::from_tuples(1, {{0}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(0, 1);
  std::vector<bool> unassigned{true};
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0}};
  std::vector<std::uint8_t> conflicting;
  mark_conflicting(st, insts, conflicting);
  EXPECT_EQ(place_copies(st, insts, {0}, unassigned, conflicting, rng), 0u);
}

TEST(Placement, GroupOrderingMostConstrainedFirst) {
  // Two values to place: value 3 appears in a group-1 instruction (single
  // duplicable operand), value 4 only in group-2 instructions. Value 3 must
  // be placed first and get the unique fixing module.
  const auto s = AccessStream::from_tuples(5, {{0, 1, 3}, {3, 4}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  std::vector<bool> unassigned{false, false, false, true, true};
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0, 1, 3}, {3, 4}};
  std::vector<std::uint8_t> conflicting;
  mark_conflicting(st, insts, conflicting);
  place_copies(st, insts, {3, 4}, unassigned, conflicting, rng);
  EXPECT_TRUE(holds(st.placement(3), 2));
}

TEST(Placement, ConflictFlagsStayExactAcrossCalls) {
  // Successive calls share one flag array; after each, it must equal the
  // flags recomputed from scratch.
  const auto s =
      AccessStream::from_tuples(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  st.add_copy(4, 0);
  std::vector<bool> unassigned{false, false, true, true, false, true};
  support::SplitMix64 rng(7);
  const std::vector<std::vector<ir::ValueId>> insts{
      {0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}};
  std::vector<std::uint8_t> conflicting, fresh;
  mark_conflicting(st, insts, conflicting);
  for (const std::vector<ir::ValueId>& batch :
       {std::vector<ir::ValueId>{2, 3, 5}, {2, 3, 5}, {5}}) {
    place_copies(st, insts, batch, unassigned, conflicting, rng);
    mark_conflicting(st, insts, fresh);
    EXPECT_EQ(conflicting, fresh);
  }
  EXPECT_EQ(std::count(conflicting.begin(), conflicting.end(), 1), 0);
}

TEST(Placement, SharedSliceIndexMatchesPerCallIndex) {
  // A random run of calls on one slice, once with one index of every
  // operand value shared by every call and once with an index built by
  // each call for its own values: placements, conflict flags and the RNG must agree
  // after every call.
  support::SplitMix64 gen(0x51ce);
  std::size_t placed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t k = 2 + gen.below(9);
    const std::size_t values = 6 + gen.below(40);
    std::vector<std::vector<ir::ValueId>> insts(1 + gen.below(60));
    for (auto& ops : insts) {
      const std::size_t width = 2 + gen.below(std::min<std::size_t>(k, 4));
      while (ops.size() < width) {
        const auto v = static_cast<ir::ValueId>(gen.below(values));
        if (std::find(ops.begin(), ops.end(), v) == ops.end()) ops.push_back(v);
      }
      std::sort(ops.begin(), ops.end());
    }
    const auto s = AccessStream::from_tuples(values, insts);
    std::vector<bool> unassigned(values);
    PlacementState shared_st(s, k);
    for (ir::ValueId v = 0; v < values; ++v) {
      unassigned[v] = gen.below(3) != 0;
      for (std::size_t c = gen.below(3); c > 0; --c) {
        shared_st.add_copy(v, static_cast<std::uint32_t>(gen.below(k)));
      }
    }
    PlacementState own_st = shared_st;
    std::vector<ir::ValueId> operands;
    for (const auto& ops : insts) {
      operands.insert(operands.end(), ops.begin(), ops.end());
    }
    std::sort(operands.begin(), operands.end());
    operands.erase(std::unique(operands.begin(), operands.end()),
                   operands.end());

    SliceIndex index;
    index.build(insts, unassigned, k, operands);
    std::vector<std::uint8_t> shared_flags, own_flags;
    mark_conflicting(shared_st, insts, shared_flags);
    own_flags = shared_flags;
    const std::uint64_t seed = gen.next();
    support::SplitMix64 shared_rng(seed), own_rng(seed);
    for (int call = 0; call < 6; ++call) {
      std::vector<ir::ValueId> to_place;
      for (const ir::ValueId v : operands) {
        if (gen.below(3) == 0) to_place.push_back(v);
      }
      gen.shuffle(to_place);
      const std::size_t shared_added =
          place_copies(shared_st, insts, to_place, unassigned, shared_flags,
                       shared_rng, &index);
      const std::size_t own_added = place_copies(
          own_st, insts, to_place, unassigned, own_flags, own_rng);
      ASSERT_EQ(shared_added, own_added)
          << "trial " << trial << " call " << call;
      placed += shared_added;
      ASSERT_EQ(shared_st.placements(), own_st.placements())
          << "trial " << trial << " call " << call;
      ASSERT_EQ(shared_flags, own_flags)
          << "trial " << trial << " call " << call;
      ASSERT_EQ(shared_rng.next(), own_rng.next())
          << "trial " << trial << " call " << call;
    }
  }
  EXPECT_GT(placed, 1000u);
}

}  // namespace
}  // namespace parmem::assign
