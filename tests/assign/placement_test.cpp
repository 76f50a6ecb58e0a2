#include "assign/placement.h"

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

TEST(PlacementState, ConflictFreeWithExtraIsHypothetical) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  EXPECT_TRUE(st.conflict_free_with_extra({0, 1}, 1, 1));
  // The real state is unchanged.
  EXPECT_FALSE(st.combination_conflict_free({0, 1}));
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
  EXPECT_EQ(place_copies(st, insts, {2}, unassigned, rng), 1u);
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
  place_copies(st, insts, {4}, unassigned, rng);
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
  EXPECT_EQ(place_copies(st, insts, {0}, unassigned, rng), 0u);
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
  place_copies(st, insts, {3, 4}, unassigned, rng);
  EXPECT_TRUE(holds(st.placement(3), 2));
}

}  // namespace
}  // namespace parmem::assign
