#include "assign/backtrack.h"

#include <gtest/gtest.h>

namespace parmem::assign {
namespace {

using ir::AccessStream;

TEST(ResolveInstruction, AlreadyConflictFreeCostsNothing) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  support::SplitMix64 rng(1);
  const auto cost = resolve_instruction(st, {0, 1}, {true, true}, rng);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 0u);
}

TEST(ResolveInstruction, UsesExistingCopiesBeforeCreating) {
  // Value 2 already has a copy in module 2; resolving {0,1,2} must use it
  // rather than create a new copy.
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  st.add_copy(2, 2);
  st.add_copy(2, 0);  // also in module 0 (collides with value 0's module)
  support::SplitMix64 rng(1);
  const auto cost =
      resolve_instruction(st, {0, 1, 2}, {false, false, true}, rng);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 0u);
}

TEST(ResolveInstruction, CreatesMinimumNewCopies) {
  // 0 and 1 fixed to module 0 — impossible for fixed ops alone; but 1 is
  // flexible: one new copy suffices.
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  support::SplitMix64 rng(1);
  const auto cost = resolve_instruction(st, {0, 1}, {false, true}, rng);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 1u);
  EXPECT_EQ(st.copies(1), 2u);
}

TEST(ResolveInstruction, InfeasibleWhenNothingFlexible) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  support::SplitMix64 rng(1);
  EXPECT_FALSE(
      resolve_instruction(st, {0, 1}, {false, false}, rng).has_value());
}

TEST(ResolveInstruction, MoreOperandsThanModulesInfeasible) {
  const auto s = AccessStream::from_tuples(3, {{0, 1, 2}});
  PlacementState st(s, 2);
  support::SplitMix64 rng(1);
  EXPECT_FALSE(
      resolve_instruction(st, {0, 1, 2}, {true, true, true}, rng).has_value());
}

TEST(BacktrackDuplicate, ResolvesWholeStream) {
  // K4 conflicts with k=3: one value must be duplicated.
  const auto s = AccessStream::from_tuples(
      4, {{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}});
  PlacementState st(s, 3);
  // Pretend coloring assigned 0,1,2 and removed 3.
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  st.add_copy(2, 2);
  std::vector<bool> unassigned{false, false, false, true};
  std::vector<bool> duplicatable(4, true);
  support::SplitMix64 rng(1);
  std::vector<std::vector<ir::ValueId>> insts;
  for (const auto& t : s.tuples) insts.push_back(t.operands);
  const auto out = backtrack_duplicate(st, insts, unassigned, duplicatable, rng);
  EXPECT_TRUE(out.unresolved.empty());
  for (const auto& t : s.tuples) EXPECT_TRUE(st.tuple_conflict_free(t));
  // Value 3 conflicts with each pair of {0,1,2}; it needs a copy dodging
  // each pair: 3 copies needed (one per missing module of each instruction).
  EXPECT_EQ(st.copies(3), 3u);
}

TEST(BacktrackDuplicate, OrderingProcessesConstrainedInstructionsFirst) {
  // Instruction {0,1,4} has one duplicable operand (group 1) and must pin 4
  // to module 2; instruction {4,5} (group 2) then reuses that copy.
  const auto s = AccessStream::from_tuples(6, {{4, 5}, {0, 1, 4}});
  PlacementState st(s, 3);
  st.add_copy(0, 0);
  st.add_copy(1, 1);
  st.add_copy(5, 0);
  std::vector<bool> unassigned{false, false, false, false, true, false};
  std::vector<bool> duplicatable(6, true);
  support::SplitMix64 rng(1);
  std::vector<std::vector<ir::ValueId>> insts;
  for (const auto& t : s.tuples) insts.push_back(t.operands);
  const auto out =
      backtrack_duplicate(st, insts, unassigned, duplicatable, rng);
  EXPECT_TRUE(out.unresolved.empty());
  EXPECT_EQ(st.copies(4), 1u);  // a single well-placed copy serves both
  EXPECT_TRUE(holds(st.placement(4), 2));
}

TEST(BacktrackDuplicate, FallsBackToDuplicatableMaskForGroupZero) {
  // Both operands were "fixed" to module 0 by an earlier stage but are
  // duplicable: the group-0 fallback must resolve the conflict.
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  std::vector<bool> unassigned{false, false};
  std::vector<bool> duplicatable{true, true};
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0, 1}};
  const auto out =
      backtrack_duplicate(st, insts, unassigned, duplicatable, rng);
  EXPECT_TRUE(out.unresolved.empty());
  EXPECT_EQ(out.copies_added, 1u);
  EXPECT_TRUE(st.combination_conflict_free({0, 1}));
}

TEST(BacktrackDuplicate, ReportsUnresolvableConflicts) {
  const auto s = AccessStream::from_tuples(2, {{0, 1}});
  PlacementState st(s, 2);
  st.add_copy(0, 0);
  st.add_copy(1, 0);
  std::vector<bool> unassigned{false, false};
  std::vector<bool> duplicatable{false, false};  // nothing may be copied
  support::SplitMix64 rng(1);
  const std::vector<std::vector<ir::ValueId>> insts{{0, 1}};
  const auto out =
      backtrack_duplicate(st, insts, unassigned, duplicatable, rng);
  ASSERT_EQ(out.unresolved.size(), 1u);
  EXPECT_EQ(out.unresolved[0], 0u);
}

}  // namespace
}  // namespace parmem::assign
