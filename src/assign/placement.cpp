#include "assign/placement.h"

#include <algorithm>
#include <optional>

#include "support/diagnostics.h"

namespace parmem::assign {

void mark_conflicting(const PlacementState& st, InstSpan insts,
                      std::vector<std::uint8_t>& conflicting) {
  conflicting.resize(insts.size());
  for (std::size_t i = 0; i < insts.size(); ++i) {
    conflicting[i] = st.combination_conflict_free(insts[i]) ? 0 : 1;
  }
}

std::size_t place_copies(PlacementState& st,
                         InstSpan insts,
                         const std::vector<ir::ValueId>& to_place,
                         const std::vector<bool>& in_unassigned,
                         std::vector<std::uint8_t>& conflicting,
                         support::SplitMix64& rng, AssignWorkspace* ws) {
  PARMEM_CHECK(conflicting.size() == insts.size(),
               "one conflict flag per instruction");
  if (to_place.empty()) return 0;  // nothing to place, nothing drawn
  const std::size_t k = st.module_count();

  std::optional<AssignWorkspace> local_ws;  // only built when ws is null
  AssignWorkspace& w = ws != nullptr ? *ws : local_ws.emplace();

  // Group id of an instruction: number of duplicable operands, clamped to
  // [1, k]. Instructions with zero duplicable operands cannot be helped by
  // placement and are ignored.
  const auto group_of = [&](const std::vector<ir::ValueId>& ops) {
    std::size_t dup = 0;
    for (const ir::ValueId v : ops) {
      if (v < in_unassigned.size() && in_unassigned[v]) ++dup;
    }
    return std::min(dup, k);
  };

  // Inverted index: per value to place, the ascending instruction indices
  // that mention it — one pass over the instructions instead of a full
  // rescan per (value, use) in the profile / resolution / re-check loops.
  std::size_t value_universe = in_unassigned.size();
  for (const ir::ValueId v : to_place) {
    value_universe = std::max(value_universe, static_cast<std::size_t>(v) + 1);
  }
  w.begin_values(value_universe);
  std::uint32_t slots = 0;
  for (const ir::ValueId v : to_place) w.mark_value(v, slots);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    for (const ir::ValueId v : insts[i]) {
      if (w.value_marked(v)) {
        w.occurrences[w.value_slot[v]].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }
  const auto uses_of = [&](ir::ValueId v) -> const std::vector<std::uint32_t>& {
    return w.occurrences[w.value_slot[v]];
  };

  // Value processing order: by conflicting-instruction counts per group,
  // group 1 first, compared lexicographically, descending.
  const auto value_profile = [&](ir::ValueId v) {
    std::vector<std::size_t> profile(k + 1, 0);
    for (const std::uint32_t i : uses_of(v)) {
      if (!conflicting[i]) continue;
      const std::size_t grp = group_of(insts[i]);
      if (grp >= 1) ++profile[grp];
    }
    return profile;
  };

  std::vector<ir::ValueId> values = to_place;
  {
    std::vector<std::vector<std::size_t>> profiles;
    profiles.reserve(values.size());
    for (const ir::ValueId v : values) profiles.push_back(value_profile(v));
    std::vector<std::size_t> idx(values.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (profiles[a] != profiles[b]) return profiles[a] > profiles[b];
      return values[a] < values[b];
    });
    std::vector<ir::ValueId> sorted;
    sorted.reserve(values.size());
    for (const std::size_t i : idx) sorted.push_back(values[i]);
    values = std::move(sorted);
  }

  std::size_t added = 0;
  for (const ir::ValueId v : values) {
    // Candidate modules: those not already holding v.
    const ModuleSet candidate_set = all_modules(k) & ~st.placement(v);
    if (candidate_set == 0) continue;  // already everywhere
    const std::vector<std::uint32_t> candidates = modules_of(candidate_set);

    // Resolved-conflict vector per candidate module, indexed by group.
    std::vector<std::vector<std::size_t>> resolved(
        candidates.size(), std::vector<std::size_t>(k + 1, 0));
    for (const std::uint32_t i : uses_of(v)) {
      if (!conflicting[i]) continue;
      const auto& ops = insts[i];
      const std::size_t grp = group_of(ops);
      if (grp == 0) continue;
      const ModuleSet fixes = st.extra_copy_fixes(ops, v, candidate_set);
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (holds(fixes, candidates[c])) ++resolved[c][grp];
      }
    }

    // Lexicographically largest vector (group 1 first); collect all ties
    // and pick randomly among them (Fig. 10's terminal random choice).
    std::size_t best = 0;
    for (std::size_t c = 1; c < candidates.size(); ++c) {
      if (resolved[c] > resolved[best]) best = c;
    }
    std::vector<std::size_t> ties;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (resolved[c] == resolved[best]) ties.push_back(c);
    }
    const std::size_t pick =
        ties[static_cast<std::size_t>(rng.below(ties.size()))];
    const std::uint32_t module = candidates[pick];

    PARMEM_CHECK(st.add_copy(v, module), "candidate module already held v");
    ++added;

    // Re-check instructions that mention v.
    for (const std::uint32_t i : uses_of(v)) {
      if (!conflicting[i]) continue;
      if (st.combination_conflict_free(insts[i])) conflicting[i] = 0;
    }
  }
  return added;
}

}  // namespace parmem::assign
