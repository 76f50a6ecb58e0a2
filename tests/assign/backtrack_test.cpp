#include "assign/backtrack.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "support/budget.h"

namespace parmem::assign {
namespace {

using ir::AccessStream;

/// Fig. 6 as plain backtracking, the reference for the memoised search:
/// walks every ordering of module choices for the flexible operands
/// (existing copies first, then new modules, each ascending), lists every
/// cheapest feasible leaf in walk order, and draws one index into the list.
std::optional<std::size_t> listed_resolve(PlacementState& st,
                                          const std::vector<ir::ValueId>& ops,
                                          const std::vector<bool>& flexible,
                                          support::SplitMix64& rng) {
  if (st.combination_conflict_free(ops)) return 0;
  const std::size_t k = st.module_count();
  if (ops.size() > k) return std::nullopt;
  std::vector<ir::ValueId> flex;
  std::vector<ir::ValueId> fixed;
  for (const ir::ValueId v : ops) (flexible[v] ? flex : fixed).push_back(v);
  if (flex.empty()) return std::nullopt;

  std::vector<std::vector<std::uint32_t>> leaves;
  std::size_t best = ~std::size_t{0};
  std::vector<std::uint32_t> choice;
  const std::function<void(ModuleSet, std::size_t)> walk =
      [&](ModuleSet used, std::size_t cost) {
        if (cost > best) return;
        if (choice.size() == flex.size()) {
          std::array<ModuleSet, kMaxModules> avail{};
          for (std::size_t i = 0; i < fixed.size(); ++i) {
            avail[i] = st.placement(fixed[i]) & ~used;
            if (avail[i] == 0) return;
          }
          if (!support::has_distinct_representatives(
                  {avail.data(), fixed.size()}, k)) {
            return;
          }
          if (cost < best) leaves.clear();
          best = cost;
          leaves.push_back(choice);
          return;
        }
        const ModuleSet existing = st.placement(flex[choice.size()]);
        for (const bool fresh : {false, true}) {
          for (std::uint32_t m = 0; m < k; ++m) {
            if (holds(existing, m) == fresh || holds(used, m)) continue;
            choice.push_back(m);
            walk(used | module_bit(m), cost + (fresh ? 1 : 0));
            choice.pop_back();
          }
        }
      };
  walk(0, 0);
  if (leaves.empty()) return std::nullopt;
  const auto& pick = leaves[rng.below(leaves.size())];
  std::size_t added = 0;
  for (std::size_t i = 0; i < flex.size(); ++i) {
    if (st.add_copy(flex[i], pick[i])) ++added;
  }
  return added;
}

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

// The memoised search picks exactly what the listed reference picks, and
// leaves the rng where the reference leaves it.
TEST(ResolveInstruction, MatchesListedBacktracking) {
  support::SplitMix64 gen(0xf16);
  std::size_t resolved = 0;
  std::size_t infeasible = 0;
  for (std::size_t trial = 0; trial < 600; ++trial) {
    const std::size_t k = 2 + gen.below(9);
    const std::size_t n = 1 + gen.below(k + 2);
    std::vector<ir::ValueId> ops(n);
    for (ir::ValueId v = 0; v < n; ++v) ops[v] = v;
    // At most six flexible operands keep the reference's k!/(k-f)! walk
    // quick.
    std::vector<bool> flexible(n, false);
    std::size_t flex_count = 0;
    for (ir::ValueId v = 0; v < n && flex_count < 6; ++v) {
      flexible[v] = gen.below(3) != 0;
      flex_count += flexible[v] ? 1 : 0;
    }
    const auto s = AccessStream::from_tuples(n, {ops});
    PlacementState mine(s, k);
    PlacementState reference(s, k);
    for (ir::ValueId v = 0; v < n; ++v) {
      if (gen.below(8) == 0) continue;  // copyless
      for (std::size_t c = 1 + gen.below(3); c > 0; --c) {
        const auto m = static_cast<std::uint32_t>(gen.below(k));
        mine.add_copy(v, m);
        reference.add_copy(v, m);
      }
    }
    const std::uint64_t seed = gen.next();
    support::SplitMix64 rng_mine(seed);
    support::SplitMix64 rng_reference(seed);
    const auto got = resolve_instruction(mine, ops, flexible, rng_mine);
    const auto want = listed_resolve(reference, ops, flexible, rng_reference);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(got, want);
    ASSERT_EQ(mine.placements(), reference.placements());
    ASSERT_EQ(rng_mine.next(), rng_reference.next());
    resolved += got.value_or(0) > 0 ? 1 : 0;
    infeasible += got.has_value() ? 0 : 1;
  }
  // The corpus must exercise both the pick and the infeasible exit.
  EXPECT_GT(resolved, 100u);
  EXPECT_GT(infeasible, 20u);
}

TEST(ResolveInstruction, TrippedBudgetChangesNothing) {
  const auto s = AccessStream::from_tuples(4, {{0, 1, 2, 3}});
  PlacementState st(s, 4);
  for (ir::ValueId v = 0; v < 4; ++v) st.add_copy(v, 0);
  support::SplitMix64 rng(9);
  support::SplitMix64 untouched(9);
  support::Budget budget(support::BudgetSpec{0, 3});
  EXPECT_FALSE(resolve_instruction(st, {0, 1, 2, 3}, {true, true, true, true},
                                   rng, &budget)
                   .has_value());
  EXPECT_TRUE(budget.exhausted());
  for (ir::ValueId v = 0; v < 4; ++v) EXPECT_EQ(st.placement(v), 1u);
  EXPECT_EQ(rng.next(), untouched.next());
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
