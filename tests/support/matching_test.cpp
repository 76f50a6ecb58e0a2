#include "support/matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "support/diagnostics.h"
#include "support/rng.h"

namespace parmem::support {
namespace {

// Bitmask of the listed modules.
std::uint32_t mods(std::initializer_list<std::uint32_t> ms) {
  std::uint32_t mask = 0;
  for (const std::uint32_t m : ms) mask |= std::uint32_t{1} << m;
  return mask;
}

bool sdr(const std::vector<std::uint32_t>& masks, std::size_t k) {
  return has_distinct_representatives(masks, k);
}

TEST(BipartiteMatcher, EmptyInstanceMatchesEverything) {
  EXPECT_TRUE(sdr({}, 4));
  EXPECT_TRUE(sdr({}, 0));
}

TEST(BipartiteMatcher, PerfectMatchingOnDisjointChoices) {
  const std::vector<std::uint32_t> masks{mods({0}), mods({1}), mods({2})};
  std::vector<std::uint32_t> reps(3);
  ASSERT_TRUE(has_distinct_representatives(masks, 3, reps));
  EXPECT_EQ(reps, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(BipartiteMatcher, AugmentingPathReassignsEarlierChoice) {
  // Mask 0 can use {0,1}; mask 1 only {0}. The greedy first pick must be
  // pushed off module 0 via an augmenting path.
  const std::vector<std::uint32_t> masks{mods({0, 1}), mods({0})};
  std::vector<std::uint32_t> reps(2);
  ASSERT_TRUE(has_distinct_representatives(masks, 2, reps));
  EXPECT_EQ(reps, (std::vector<std::uint32_t>{1, 0}));
}

TEST(BipartiteMatcher, InfeasibleWhenHallConditionFails) {
  EXPECT_FALSE(sdr({mods({0}), mods({0})}, 3));
  // A zero mask can never be matched.
  EXPECT_FALSE(sdr({mods({1}), 0}, 3));
}

TEST(BipartiteMatcher, RejectsOutOfRangeRight) {
  EXPECT_THROW(sdr({mods({2})}, 2), InternalError);
  EXPECT_THROW(sdr({}, kMaxModules + 1), InternalError);
  std::vector<std::uint32_t> short_reps(1);
  EXPECT_THROW(has_distinct_representatives(
                   std::vector<std::uint32_t>{mods({0}), mods({1})}, 2,
                   short_reps),
               InternalError);
}

TEST(DistinctRepresentatives, PaperFig1AssignmentIsConflictFree) {
  // Fig. 1's instruction V1 V2 V4 with V1@M2, V2@M1, V4@M3 (0-based here):
  // singleton copy sets, pairwise distinct.
  EXPECT_TRUE(sdr({mods({1}), mods({0}), mods({2})}, 3));
  // Instruction where two operands share their only module:
  EXPECT_FALSE(sdr({mods({1}), mods({1}), mods({2})}, 3));
  // A duplicated operand resolves it:
  EXPECT_TRUE(sdr({mods({1}), mods({1, 0}), mods({2})}, 3));
}

TEST(DistinctRepresentatives, MoreOperandsThanModulesAlwaysConflicts) {
  EXPECT_FALSE(sdr({mods({0, 1}), mods({0, 1}), mods({0, 1})}, 2));
}

TEST(DistinctRepresentatives, FindReturnsDistinctModules) {
  const std::vector<std::uint32_t> masks{mods({0, 1}), mods({0, 1}),
                                         mods({2, 0})};
  std::vector<std::uint32_t> reps(3);
  ASSERT_TRUE(has_distinct_representatives(masks, 3, reps));
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_NE(masks[i] & (std::uint32_t{1} << reps[i]), 0u);
  }
  EXPECT_NE(reps[0], reps[1]);
  EXPECT_NE(reps[0], reps[2]);
  EXPECT_NE(reps[1], reps[2]);
}

// Hall's condition checked directly: an SDR exists iff every subfamily of
// the masks covers at least as many modules as it has members. For a given
// set of distinct mask values the worst subfamily takes every mask with one
// of those values, so enumerating subsets of the distinct values is exact.
bool hall_holds(const std::vector<std::uint32_t>& masks) {
  std::vector<std::uint32_t> values;
  std::vector<std::size_t> count;
  for (const std::uint32_t m : masks) {
    const auto it = std::find(values.begin(), values.end(), m);
    if (it == values.end()) {
      values.push_back(m);
      count.push_back(1);
    } else {
      ++count[static_cast<std::size_t>(it - values.begin())];
    }
  }
  for (std::uint64_t sub = 1; sub < (std::uint64_t{1} << values.size());
       ++sub) {
    std::uint32_t cover = 0;
    std::size_t members = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if ((sub >> i) & 1) {
        cover |= values[i];
        members += count[i];
      }
    }
    if (static_cast<std::size_t>(std::popcount(cover)) < members) return false;
  }
  return true;
}

TEST(DistinctRepresentatives, RandomizedAgainstBruteForce) {
  // Every module count 1..32 and every width 0..k+1. Masks are drawn from a
  // pool of at most 12 distinct values (a wide family repeats them), which
  // keeps the exact Hall check above to 2^12 subsets per instance.
  constexpr std::size_t kPool = 12;
  SplitMix64 rng(42);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (std::size_t k = 1; k <= kMaxModules; ++k) {
    for (std::size_t width = 0; width <= k + 1; ++width) {
      for (int iter = 0; iter < 6; ++iter) {
        // Density varies by iteration, from near-singleton to near-full.
        const double p = 0.05 + 0.18 * iter;
        std::vector<std::uint32_t> pool(std::min(width, kPool));
        for (auto& m : pool) {
          m = 0;
          for (std::uint32_t b = 0; b < k; ++b) {
            if (rng.uniform() < p) m |= std::uint32_t{1} << b;
          }
          if (m == 0) m = std::uint32_t{1} << rng.below(k);
        }
        std::vector<std::uint32_t> masks(width);
        for (std::size_t i = 0; i < width; ++i) {
          masks[i] = i < pool.size() ? pool[i] : pool[rng.below(pool.size())];
        }
        SCOPED_TRACE("k=" + std::to_string(k) + " width=" +
                     std::to_string(width) + " iter=" + std::to_string(iter));
        std::vector<std::uint32_t> reps(width);
        const bool found = has_distinct_representatives(masks, k, reps);
        ASSERT_EQ(found, hall_holds(masks));
        if (!found) {
          ++infeasible;
          continue;
        }
        ++feasible;
        // The representatives are a witness: admissible and distinct.
        std::uint32_t used = 0;
        for (std::size_t i = 0; i < width; ++i) {
          ASSERT_LT(reps[i], k);
          ASSERT_NE(masks[i] & (std::uint32_t{1} << reps[i]), 0u);
          ASSERT_EQ(used & (std::uint32_t{1} << reps[i]), 0u);
          used |= std::uint32_t{1} << reps[i];
        }
      }
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(feasible, 500u);
  EXPECT_GT(infeasible, 500u);
}

}  // namespace
}  // namespace parmem::support
