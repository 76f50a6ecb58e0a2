#include "assign/hitting_set_approach.h"

#include <algorithm>
#include <optional>

#include "assign/backtrack.h"
#include "assign/hitting_set.h"
#include "assign/placement.h"
#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"

namespace parmem::assign {
namespace {

/// All distinct size-`num` operand combinations occurring in instructions
/// wide enough to contain them, in lexicographic order (sort + unique over
/// the generated stream — the same sequence a std::set would iterate, minus
/// the per-insert node allocation and tree rebalancing).
///
/// Only instructions flagged in `conflicting` are enumerated. Every subset
/// of a conflict-free operand set is conflict-free, and copies are only
/// ever added, so a conflict-free instruction can contribute no conflicting
/// combination now or in any later round: the caller sees exactly the
/// conflicting combinations, in the same order, as a full enumeration.
///
/// Only combinations with an `is_candidate` operand are kept. The rounds add
/// copies only to candidates, which hold two already, so a value that is no
/// candidate now never becomes one: a skipped combination could only ever
/// yield an empty candidate set.
///
/// With a budget, generation charges one step per combination (in chunks,
/// so the deadline is polled while a wide instruction is still being
/// enumerated) and returns nullopt as soon as the budget trips.
template <typename IsCandidate>
std::optional<std::vector<std::vector<ir::ValueId>>> combinations_of_size(
    InstSpan insts, const std::vector<std::uint8_t>& conflicting,
    std::size_t num, const IsCandidate& is_candidate,
    support::Budget* budget) {
  constexpr std::size_t kChargeChunk = 1024;
  std::vector<std::vector<ir::ValueId>> combos;
  std::vector<ir::ValueId> current;
  std::vector<std::size_t> idx(num);
  std::size_t uncharged = 0;
  for (std::size_t t = 0; t < insts.size(); ++t) {
    const auto& ops = insts[t];
    if (ops.size() < num || !conflicting[t] ||
        std::none_of(ops.begin(), ops.end(), is_candidate)) {
      continue;
    }
    // Operands are sorted, so generated combinations are canonical.
    const std::size_t n = ops.size();
    // Iterative combination enumeration via index vector.
    for (std::size_t i = 0; i < num; ++i) idx[i] = i;
    for (;;) {
      current.clear();
      for (const std::size_t i : idx) current.push_back(ops[i]);
      if (std::any_of(current.begin(), current.end(), is_candidate)) {
        combos.push_back(current);
      }
      if (budget != nullptr && ++uncharged == kChargeChunk) {
        uncharged = 0;
        if (!budget->charge(kChargeChunk)) return std::nullopt;
      }
      // Advance.
      std::size_t pos = num;
      while (pos > 0 && idx[pos - 1] == n - (num - pos) - 1) --pos;
      if (pos == 0) break;
      ++idx[pos - 1];
      for (std::size_t i = pos; i < num; ++i) idx[i] = idx[i - 1] + 1;
    }
  }
  if (budget != nullptr && !budget->charge(uncharged)) return std::nullopt;
  std::sort(combos.begin(), combos.end());
  combos.erase(std::unique(combos.begin(), combos.end()), combos.end());
  return combos;
}

}  // namespace

HittingSetOutcome hitting_set_duplicate(
    PlacementState& st, InstSpan insts,
    const std::vector<bool>& in_unassigned,
    const std::vector<bool>& duplicatable, support::SplitMix64& rng,
    AssignWorkspace* ws, const std::vector<ir::ValueId>* values) {
  const std::size_t k = st.module_count();
  HittingSetOutcome out;

  std::optional<AssignWorkspace> local_ws;  // only built when ws is null
  AssignWorkspace& w = ws != nullptr ? *ws : local_ws.emplace();

  // The values a placement below can pick: members of V_unassigned (the
  // pair step) and values that already have two copies (a hitting-set
  // round picks only those, and before the fix-up only placements add
  // copies, to values that were placeable already).
  const auto placeable = [&](ir::ValueId v) {
    return v < in_unassigned.size() && (in_unassigned[v] || st.copies(v) >= 2);
  };
  std::vector<ir::ValueId> gathered;
  if (values == nullptr) {
    w.begin_values(in_unassigned.size());
    for (const auto& ops : insts) {
      for (const ir::ValueId v : ops) {
        if (placeable(v) && w.mark_value(v)) gathered.push_back(v);
      }
    }
    values = &gathered;
  }
  // Values removed during coloring that still need their initial copies.
  // Their order is free: place_copies orders what it places by (profile,
  // value id).
  std::vector<ir::ValueId> need_first;
  std::vector<ir::ValueId> need_second;
  for (const ir::ValueId v : *values) {
    if (v >= in_unassigned.size() || !in_unassigned[v]) continue;
    if (st.copies(v) == 0) need_first.push_back(v);
    if (st.copies(v) <= 1) need_second.push_back(v);
  }

  // One conflict flag per instruction for the whole call: copies are only
  // added, and only by place_copies, which clears the flags its copies
  // resolve, so the flags stay exact until the fix-up below.
  auto& conflicting = w.conflicting;
  mark_conflicting(st, insts, conflicting);

  // One occurrence index of the slice's placeable values serves every
  // placement below. It is built on the first value to place, before any
  // copy is added, so a slice with nothing to place (most atoms of small
  // programs) never pays for it.
  bool indexed = false;
  const auto place = [&](const std::vector<ir::ValueId>& to_place) {
    if (to_place.empty()) return std::size_t{0};
    if (!indexed) {
      std::vector<ir::ValueId> rows;
      for (const ir::ValueId v : *values) {
        if (placeable(v)) rows.push_back(v);
      }
      w.slice_index.build(insts, in_unassigned, k, rows);
      indexed = true;
    }
    return place_copies(st, insts, to_place, in_unassigned, conflicting, rng,
                        &w.slice_index);
  };

  // Fig. 7: Place(V_unassigned) — first copies — then Place(V_unassigned)
  // again so that every pair combination is conflict free (two copies in
  // two distinct modules always satisfy any pair).
  out.copies_added += place(need_first);
  out.copies_added += place(need_second);

  std::size_t max_width = 0;
  for (const auto& ops : insts) max_width = std::max(max_width, ops.size());

  // A value whose replication can resolve a combination in the rounds:
  // duplicable, holding two copies already, with a module left to take.
  const auto is_candidate = [&](ir::ValueId v) {
    return v < duplicatable.size() && duplicatable[v] && st.copies(v) >= 2 &&
           st.copies(v) < k;
  };

  support::Budget* const budget = w.budget;
  PARMEM_FAULT_POINT("assign.hitting_set", budget);
  for (std::size_t num = 3; num <= std::min(max_width, k); ++num) {
    if (budget != nullptr && !budget->poll()) {
      out.budget_exhausted = true;
      break;
    }
    auto combos =
        combinations_of_size(insts, conflicting, num, is_candidate, budget);
    if (!combos.has_value()) {
      out.budget_exhausted = true;
      break;
    }
    for (;;) {
      // Each round scans every combination once; meter that work before
      // spending it so a deadline interrupts between rounds.
      if (budget != nullptr && !budget->charge(combos->size())) {
        out.budget_exhausted = true;
        break;
      }
      // A resolved combination stays resolved (copies are only added), so
      // later rounds need not test it again.
      std::erase_if(*combos, [&](const std::vector<ir::ValueId>& combo) {
        return st.combination_conflict_free(combo);
      });
      // Candidate sets: for each conflicting combination, the multi-copy
      // duplicable operands whose replication can resolve it.
      std::vector<std::vector<std::uint32_t>> cand_sets;
      for (const auto& combo : *combos) {
        std::vector<std::uint32_t> cands;
        for (const ir::ValueId v : combo) {
          if (is_candidate(v)) cands.push_back(v);
        }
        if (!cands.empty()) cand_sets.push_back(std::move(cands));
      }
      if (cand_sets.empty()) break;
      ++out.rounds;

      const auto hs = greedy_hitting_set(cand_sets);
      std::vector<ir::ValueId> to_place(hs.begin(), hs.end());
      const std::size_t added = place(to_place);
      out.copies_added += added;
      if (added == 0) break;  // saturated: fall through to the fix-up
    }
  }

  // Guarantee the invariant: any instruction still conflicting gets the
  // per-instruction backtracking treatment over its duplicable operands.
  // When the budget tripped, the unbounded enumeration is skipped and the
  // conflicting instructions are reported for the caller's capped fix-up.
  // resolve_instruction adds copies behind the flags' back, so a flagged
  // instruction is tested again before it is treated.
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (!conflicting[i] || st.combination_conflict_free(insts[i])) continue;
    if (out.budget_exhausted) {
      out.unresolved.push_back(i);
      continue;
    }
    const auto added =
        resolve_instruction(st, insts[i], duplicatable, rng, budget);
    if (added.has_value()) {
      out.copies_added += *added;
    } else {
      out.unresolved.push_back(i);
    }
    if (budget != nullptr && budget->exhausted()) out.budget_exhausted = true;
  }
  return out;
}

}  // namespace parmem::assign
