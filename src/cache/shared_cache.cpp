#include "cache/shared_cache.h"

#include <algorithm>

#include "assign/verify.h"
#include "support/diagnostics.h"

namespace parmem::cache {
namespace {

/// Frequency-weighted multiple-hit cost of a placement: a group costs its
/// frequency when its items cannot hit pairwise-distinct caches.
std::uint64_t multi_hit_weight(const std::vector<AccessGroup>& groups,
                               const std::vector<assign::ModuleSet>& placement,
                               std::size_t cache_count) {
  std::uint64_t weight = 0;
  for (const AccessGroup& g : groups) {
    if (!assign::copies_admit_sdr(g.items, placement, cache_count)) {
      weight += g.frequency;
    }
  }
  return weight;
}

}  // namespace

CachePlan plan_shared_caches(std::size_t item_count,
                             const std::vector<AccessGroup>& groups,
                             const CachePlanOptions& options) {
  PARMEM_CHECK(options.cache_count >= 1 &&
                   options.cache_count <= assign::kMaxModules,
               "cache count out of range");
  PARMEM_CHECK(options.read_only.empty() ||
                   options.read_only.size() == item_count,
               "read_only mask size mismatch");

  // Build the access stream: each group contributes its tuple with a
  // multiplicity proportional to its frequency, so conf() — and with it the
  // coloring urgency — reflects access frequency, the paper's hint.
  // Frequencies are clamped into a small repetition budget to keep the
  // stream compact while preserving relative order of magnitude.
  std::uint64_t max_freq = 1;
  for (const AccessGroup& g : groups) {
    max_freq = std::max(max_freq, g.frequency);
  }
  const std::uint64_t scale = std::max<std::uint64_t>(1, max_freq / 16);

  std::vector<std::vector<ir::ValueId>> tuples;
  for (const AccessGroup& g : groups) {
    PARMEM_CHECK(!g.items.empty(), "empty access group");
    for (const std::uint32_t item : g.items) {
      PARMEM_CHECK(item < item_count, "access group item out of range");
    }
    const std::uint64_t reps =
        std::max<std::uint64_t>(1, g.frequency / scale);
    for (std::uint64_t r = 0; r < reps; ++r) {
      tuples.emplace_back(g.items.begin(), g.items.end());
    }
  }

  ir::AccessStream stream =
      ir::AccessStream::from_tuples(item_count, std::move(tuples));
  if (!options.read_only.empty()) {
    for (std::size_t i = 0; i < item_count; ++i) {
      stream.duplicatable[i] = options.read_only[i];
    }
  }

  assign::AssignOptions ao;
  ao.module_count = options.cache_count;
  ao.method = options.method;
  ao.seed = options.seed;
  const assign::AssignResult result = assign::assign_modules(stream, ao);

  CachePlan plan;
  plan.cache_count = options.cache_count;
  plan.item_caches = result.placement;
  for (const assign::ModuleSet s : plan.item_caches) {
    const std::size_t copies = assign::copy_count(s);
    plan.total_placements += copies;
    if (copies > 1) ++plan.replicated_items;
  }

  // Naive baseline: everything in cache 0.
  std::vector<assign::ModuleSet> naive(item_count, assign::module_bit(0));
  plan.multi_hit_weight_before =
      multi_hit_weight(groups, naive, options.cache_count);
  plan.multi_hit_weight_after =
      multi_hit_weight(groups, plan.item_caches, options.cache_count);
  return plan;
}

}  // namespace parmem::cache
