#include "assign/hitting_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "assign/assigner.h"
#include "result_hash.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace parmem::assign {
namespace {

TEST(HittingSet, SingletonSetsAreForced) {
  const auto hs = greedy_hitting_set({{3}, {5}, {3, 5, 7}});
  EXPECT_EQ(hs, (std::vector<std::uint32_t>{3, 5}));
}

TEST(HittingSet, GreedyHitsEverything) {
  const std::vector<std::vector<std::uint32_t>> sets{
      {1, 2}, {2, 3}, {3, 4}, {1, 4}, {2, 4}};
  const auto hs = greedy_hitting_set(sets);
  EXPECT_TRUE(hits_all(hs, sets));
}

TEST(HittingSet, FrequentElementPreferred) {
  // Element 9 occurs in all three pair-sets; the greedy must pick it alone.
  const std::vector<std::vector<std::uint32_t>> sets{
      {9, 1}, {9, 2}, {9, 3}};
  const auto hs = greedy_hitting_set(sets);
  EXPECT_EQ(hs, (std::vector<std::uint32_t>{9}));
}

TEST(HittingSet, EmptyInput) {
  EXPECT_TRUE(greedy_hitting_set({}).empty());
  EXPECT_TRUE(exact_hitting_set({}).empty());
}

TEST(HittingSet, RejectsEmptySet) {
  EXPECT_THROW(greedy_hitting_set({{}}), support::InternalError);
  EXPECT_THROW(exact_hitting_set({{1}, {}}), support::InternalError);
}

TEST(HittingSet, ExactIsMinimum) {
  // Optimal is {2,4} (size 2); a poor greedy could take 3.
  const std::vector<std::vector<std::uint32_t>> sets{
      {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 4}};
  const auto hs = exact_hitting_set(sets);
  EXPECT_TRUE(hits_all(hs, sets));
  EXPECT_EQ(hs.size(), 2u);
}

TEST(HittingSet, GreedyWithinHarmonicBoundOnRandomInputs) {
  // §2.2.2.2: heuristic/optimal <= H_m where m is the max number of sets an
  // element occurs in. Verify on random small instances.
  support::SplitMix64 rng(7);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t universe = 4 + rng.below(8);
    const std::size_t nsets = 2 + rng.below(10);
    std::vector<std::vector<std::uint32_t>> sets;
    std::vector<std::size_t> occurrences(universe, 0);
    for (std::size_t i = 0; i < nsets; ++i) {
      std::vector<std::uint32_t> s;
      const std::size_t size = 1 + rng.below(4);
      while (s.size() < size) {
        const auto e = static_cast<std::uint32_t>(rng.below(universe));
        if (std::find(s.begin(), s.end(), e) == s.end()) s.push_back(e);
      }
      for (const auto e : s) ++occurrences[e];
      sets.push_back(std::move(s));
    }
    const auto greedy = greedy_hitting_set(sets);
    const auto exact = exact_hitting_set(sets);
    ASSERT_TRUE(hits_all(greedy, sets)) << "iteration " << iter;
    ASSERT_TRUE(hits_all(exact, sets));
    double hm = 0;
    const std::size_t m =
        *std::max_element(occurrences.begin(), occurrences.end());
    for (std::size_t j = 1; j <= std::max<std::size_t>(m, 1); ++j) {
      hm += 1.0 / static_cast<double>(j);
    }
    EXPECT_LE(static_cast<double>(greedy.size()),
              hm * static_cast<double>(exact.size()) + 1e-9)
        << "iteration " << iter;
  }
}

// One 24-operand tuple beside every pair over values 16..39, at k = 24 with
// the hitting-set method. The wide tuple is conflict-free once the pairs
// are resolved, so the rounds of sizes 3..24 must not enumerate its operand
// subsets (about 2^24 of them; tens of seconds when every instruction was
// enumerated). The digest was computed by that full enumeration: skipping
// conflict-free instructions changes no output bit.
TEST(HittingSetApproach, ConflictFreeWideTupleIsNotEnumerated) {
  std::vector<std::vector<ir::ValueId>> tuples(1);
  for (ir::ValueId v = 0; v < 24; ++v) tuples[0].push_back(v);
  for (ir::ValueId a = 16; a < 40; ++a) {
    for (ir::ValueId b = a + 1; b < 40; ++b) tuples.push_back({a, b});
  }
  const auto stream = ir::AccessStream::from_tuples(40, tuples);
  AssignOptions o;
  o.module_count = 24;
  o.method = DupMethod::kHittingSet;

  const auto t0 = std::chrono::steady_clock::now();
  const AssignResult r = assign_modules(stream, o);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(hash_result(r), 0xcfb6e11794eb266cULL);
}

}  // namespace
}  // namespace parmem::assign
