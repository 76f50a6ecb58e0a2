// The golden-hash digest of an AssignResult shared by the differential
// suites: placement, removals and the headline stats, folded with FNV-1a
// from kFingerprintSeed. It deliberately excludes the tier and the
// speculative accounting, which differ between compared runs. Every golden
// constant in those suites depends on this exact byte order.
#pragma once

#include <cstdint>

#include "assign/assigner.h"
#include "support/fnv.h"

namespace parmem::assign {

inline std::uint64_t hash_result(const AssignResult& r) {
  using support::fnv1a_u64;
  std::uint64_t h = support::kFingerprintSeed;
  h = fnv1a_u64(h, r.module_count);
  for (const auto m : r.placement) h = fnv1a_u64(h, m);
  for (const bool b : r.removed) h = fnv1a_u64(h, b ? 1 : 0);
  h = fnv1a_u64(h, r.stats.values_used);
  h = fnv1a_u64(h, r.stats.single_copy);
  h = fnv1a_u64(h, r.stats.multi_copy);
  h = fnv1a_u64(h, r.stats.total_copies);
  h = fnv1a_u64(h, r.stats.unassigned_after_coloring);
  h = fnv1a_u64(h, r.stats.forced);
  return fnv1a_u64(h, r.stats.residual_conflict_tuples);
}

}  // namespace parmem::assign
