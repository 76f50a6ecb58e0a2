// The paper's second application (§3): distribute read-only shared data
// among the shared caches of an Alliant-FX/8-style multiprocessor so that
// simultaneous reads by different processors hit different caches.
//
//   build/examples/shared_cache_plan
#include <algorithm>
#include <cstdio>

#include "cache/shared_cache.h"
#include "support/rng.h"
#include "support/table.h"

int main() {
  using namespace parmem;

  // A synthetic workload: 8 processors share 48 read-only data items
  // (lookup tables, constants, kernel coefficients). Each "phase" of the
  // computation makes a group of items hot simultaneously; frequencies are
  // Zipf-ish — a few patterns dominate.
  support::SplitMix64 rng(808);
  std::vector<cache::AccessGroup> groups;
  for (int g = 0; g < 120; ++g) {
    cache::AccessGroup grp;
    const std::size_t width = 2 + rng.below(3);  // 2..4 concurrent readers
    while (grp.items.size() < width) {
      // Hot items have low ids (skewed popularity).
      const std::uint64_t base = rng.below(16);
      const std::uint64_t scale = rng.below(4);
      const auto item =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(base * scale, 47));
      if (std::find(grp.items.begin(), grp.items.end(), item) ==
          grp.items.end()) {
        grp.items.push_back(item);
      }
    }
    grp.frequency = 1 + 5000 / (1 + g);  // heavy head, long tail
    groups.push_back(std::move(grp));
  }

  support::TextTable table({"caches", "replicated items", "placements",
                            "multi-hit weight (naive)",
                            "multi-hit weight (planned)"});
  for (const std::size_t caches : {2u, 4u, 8u}) {
    cache::CachePlanOptions o;
    o.cache_count = caches;
    const auto plan = cache::plan_shared_caches(48, groups, o);
    table.add_row({std::to_string(caches),
                   std::to_string(plan.replicated_items),
                   std::to_string(plan.total_placements),
                   std::to_string(plan.multi_hit_weight_before),
                   std::to_string(plan.multi_hit_weight_after)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nweights are frequency-weighted counts of cycles in which "
              "at least two\nprocessors would queue on the same cache.\n");
  return 0;
}
