// Golden pin of the whole assignment over a seeded matrix of small random
// streams. Each stream runs at k = 2, 3, 4 and 8, with atoms on and off;
// its index picks the strategy, the duplication method and the module pick,
// and every fourth stream marks every fifth value mutable. The matrix
// reaches the backtracking duplication, kLowestIndex picks and forced
// never-remove vertices far more often than the CsrDifferential cells and
// FrontHalfGolden.LargeStreamAssign do, so a change to the colouring sweep
// or the duplication kernels that moves one copy fails here.
//
// The digest folds, per compile, the placement, the removals, the total
// copy count, the duplication rounds and the tier with FNV-1a.
#include <cstdint>

#include <gtest/gtest.h>

#include "assign/assigner.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"

namespace parmem::assign {
namespace {

constexpr std::size_t kSeededStreams = 400;
constexpr std::uint64_t kSeededStreamSeed = 0xa55167ULL;

ir::AccessStream seeded_stream(std::size_t i, support::SplitMix64& rng) {
  workloads::StreamGenOptions o;
  o.value_count = 8 + rng.below(48);
  o.tuple_count = 10 + rng.below(70);
  o.min_width = 2;
  o.max_width = 2 + rng.below(4);
  o.region_count = 1 + rng.below(3);
  o.locality_window = rng.below(2) == 0 ? 0 : 4 + rng.below(12);
  ir::AccessStream s = workloads::random_stream(o, rng);
  if (i % 4 == 0) {
    for (ir::ValueId v = 0; v < s.value_count; v += 5) {
      s.duplicatable[v] = false;
    }
  }
  return s;
}

std::uint64_t fold_result(std::uint64_t h, const AssignResult& r) {
  using support::fnv1a_u64;
  h = fnv1a_u64(h, r.placement.size());
  for (const auto m : r.placement) h = fnv1a_u64(h, m);
  for (const bool b : r.removed) h = fnv1a_u64(h, b ? 1 : 0);
  h = fnv1a_u64(h, r.stats.total_copies);
  h = fnv1a_u64(h, r.stats.duplication_rounds);
  return fnv1a_u64(h, static_cast<std::uint64_t>(r.tier));
}

TEST(AssignGolden, SeededStreams) {
  support::SplitMix64 rng(kSeededStreamSeed);
  std::uint64_t h = support::kFingerprintSeed;
  for (std::size_t i = 0; i < kSeededStreams; ++i) {
    const ir::AccessStream s = seeded_stream(i, rng);
    AssignOptions o;
    o.strategy = static_cast<Strategy>(i % 3);
    o.method = (i / 3) % 2 == 0 ? DupMethod::kHittingSet
                                : DupMethod::kBacktracking;
    o.pick = (i / 6) % 2 == 0 ? ModulePick::kLeastLoaded
                              : ModulePick::kLowestIndex;
    o.seed = 0x5eedULL + i;
    for (const std::size_t k : {2, 3, 4, 8}) {
      for (const bool atoms : {true, false}) {
        o.module_count = k;
        o.use_atoms = atoms;
        h = fold_result(h, assign_modules(s, o));
      }
    }
  }
  EXPECT_EQ(h, 0xbdb2077eb2b2de3dULL);
}

}  // namespace
}  // namespace parmem::assign
