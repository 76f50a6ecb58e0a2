#include "assign/placement.h"

#include <algorithm>
#include <array>
#include <bit>
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

void SliceIndex::build(InstSpan insts, const std::vector<bool>& in_unassigned,
                       std::size_t k, std::span<const ir::ValueId> values) {
  // Rows in the order of `values`; a repeated value keeps its first row.
  ++epoch_;
  off_.assign(1, 0);
  for (const ir::ValueId v : values) {
    if (v >= stamp_.size()) {
      stamp_.resize(static_cast<std::size_t>(v) + 1, 0);
      row_.resize(stamp_.size());
    }
    if (stamp_[v] == epoch_) continue;
    stamp_[v] = epoch_;
    row_[v] = static_cast<std::uint32_t>(off_.size() - 1);
    off_.push_back(0);
  }

  // Two passes over the operands: count each row's length in off_[row + 1]
  // (and each instruction's group), then place the instruction indices
  // behind a cursor per row, so every row comes out ascending.
  group_.resize(insts.size());
  for (std::size_t i = 0; i < insts.size(); ++i) {
    std::size_t dup = 0;
    for (const ir::ValueId v : insts[i]) {
      if (v < in_unassigned.size() && in_unassigned[v]) ++dup;
      if (indexes(v)) ++off_[row_[v] + 1];
    }
    group_[i] = static_cast<std::uint8_t>(std::min(dup, k));
  }
  for (std::size_t r = 1; r < off_.size(); ++r) off_[r] += off_[r - 1];
  inst_.resize(off_.back());
  cursor_.assign(off_.begin(), off_.end() - 1);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    for (const ir::ValueId v : insts[i]) {
      if (indexes(v)) inst_[cursor_[row_[v]]++] = static_cast<std::uint32_t>(i);
    }
  }
}

std::size_t place_copies(PlacementState& st,
                         InstSpan insts,
                         const std::vector<ir::ValueId>& to_place,
                         const std::vector<bool>& in_unassigned,
                         std::vector<std::uint8_t>& conflicting,
                         support::SplitMix64& rng, const SliceIndex* index) {
  PARMEM_CHECK(conflicting.size() == insts.size(),
               "one conflict flag per instruction");
  if (to_place.empty()) return 0;  // nothing to place, nothing drawn
  const std::size_t k = st.module_count();

  std::optional<SliceIndex> local;  // only built when no index is shared
  if (index == nullptr) {
    index = &local.emplace();
    local->build(insts, in_unassigned, k, to_place);
  }
  for (const ir::ValueId v : to_place) {
    PARMEM_CHECK(index->indexes(v), "value to place is not indexed");
  }

  // Per-group counts of conflicting instructions, one row of k + 1 per
  // value (or candidate module): entry g counts group g, entry 0 stays 0,
  // so comparing whole rows compares group 1 first.
  const std::size_t width = k + 1;
  const auto greater = [width](const std::uint32_t* a, const std::uint32_t* b) {
    return std::lexicographical_compare(b, b + width, a, a + width);
  };

  // Value processing order: by the value's profile (its row), descending,
  // then by value id. Ids break every tie, so the order does not depend
  // on the order of `to_place`.
  std::vector<std::uint32_t> profiles(to_place.size() * width, 0);
  for (std::size_t j = 0; j < to_place.size(); ++j) {
    std::uint32_t* const profile = &profiles[j * width];
    for (const std::uint32_t i : index->uses(to_place[j])) {
      // Group 0 (no duplicable operand) cannot be helped by placement.
      if (conflicting[i] && index->group(i) != 0) ++profile[index->group(i)];
    }
  }
  std::vector<std::uint32_t> order(to_place.size());
  for (std::uint32_t j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t* pa = &profiles[a * width];
    const std::uint32_t* pb = &profiles[b * width];
    if (greater(pa, pb)) return true;
    if (greater(pb, pa)) return false;
    return to_place[a] < to_place[b];
  });

  std::array<std::uint32_t, kMaxModules> candidates;
  std::array<std::uint32_t, kMaxModules * (kMaxModules + 1)> resolved;
  std::array<std::uint32_t, kMaxModules> ties;
  std::vector<ModuleSet> fixes;  // per use of the value being placed
  std::size_t added = 0;
  for (const std::uint32_t j : order) {
    const ir::ValueId v = to_place[j];
    // Candidate modules: those not already holding v.
    const ModuleSet candidate_set = all_modules(k) & ~st.placement(v);
    if (candidate_set == 0) continue;  // already everywhere
    std::size_t count = 0;
    for (ModuleSet s = candidate_set; s != 0; s &= s - 1) {
      candidates[count++] = static_cast<std::uint32_t>(std::countr_zero(s));
    }

    // Resolved-conflict row per candidate module. Each use's fixes are
    // kept: they say whether the chosen module resolves it.
    std::fill_n(resolved.begin(), count * width, 0);
    const auto uses = index->uses(v);
    fixes.assign(uses.size(), 0);
    for (std::size_t u = 0; u < uses.size(); ++u) {
      const std::uint32_t i = uses[u];
      if (!conflicting[i]) continue;
      const std::size_t grp = index->group(i);
      if (grp == 0) continue;
      fixes[u] = st.extra_copy_fixes(insts[i], v, candidate_set);
      for (std::size_t c = 0; c < count; ++c) {
        if (holds(fixes[u], candidates[c])) ++resolved[c * width + grp];
      }
    }

    // Lexicographically largest row (group 1 first); collect all ties and
    // pick randomly among them (Fig. 10's terminal random choice).
    const auto row = [&](std::size_t c) { return &resolved[c * width]; };
    std::size_t best = 0;
    for (std::size_t c = 1; c < count; ++c) {
      if (greater(row(c), row(best))) best = c;
    }
    std::size_t tied = 0;
    for (std::size_t c = 0; c < count; ++c) {
      if (std::equal(row(c), row(c) + width, row(best))) {
        ties[tied++] = static_cast<std::uint32_t>(c);
      }
    }
    const std::uint32_t module =
        candidates[ties[static_cast<std::size_t>(rng.below(tied))]];

    PARMEM_CHECK(st.add_copy(v, module), "candidate module already held v");
    ++added;

    // Re-check instructions that mention v: a group >= 1 one is resolved
    // exactly when its fixes hold the module; a group-0 one is tested.
    for (std::size_t u = 0; u < uses.size(); ++u) {
      const std::uint32_t i = uses[u];
      if (!conflicting[i]) continue;
      const bool resolved_now = index->group(i) != 0
                                    ? holds(fixes[u], module)
                                    : st.combination_conflict_free(insts[i]);
      if (resolved_now) conflicting[i] = 0;
    }
  }
  return added;
}

}  // namespace parmem::assign
