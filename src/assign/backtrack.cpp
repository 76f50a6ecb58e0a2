#include "assign/backtrack.h"

#include <algorithm>
#include <array>
#include <optional>

#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"

namespace parmem::assign {
namespace {

/// Recursive enumeration of module choices for the flexible operands.
/// `choice[i]` is the module flexible operand i reads from; cost counts
/// choices that are new copies. All minimum-cost solutions are collected.
///
/// The enumeration is the one genuinely exponential kernel on the normal
/// assignment path (worst case k!/(k-f)! orderings for f flexible
/// operands), so it meters the budget per node and honours a hard local
/// node cap; when stopped early the solutions collected so far remain
/// usable — they are valid, just not proven minimal.
struct Enumerator {
  const PlacementState& st;
  const std::vector<ir::ValueId>& flex_ops;       // flexible operand values
  const std::vector<ir::ValueId>& fixed_ops;      // the rest
  std::size_t k;

  std::vector<std::uint32_t> choice;
  ModuleSet used = 0;  // modules taken by flexible choices so far
  std::size_t cost = 0;

  std::size_t best_cost = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::uint32_t>> best_solutions;

  support::Budget* budget = nullptr;
  std::uint64_t node_cap = 0;  // 0 = unbounded
  std::uint64_t nodes = 0;
  bool stopped = false;  // budget / cap tripped; unwind without recursing

  void run(std::size_t idx) {
    if (stopped) return;
    ++nodes;
    if (node_cap != 0 && nodes > node_cap) {
      stopped = true;
      return;
    }
    if (budget != nullptr && (nodes & 63) == 0 && !budget->charge(64)) {
      stopped = true;
      return;
    }
    if (cost > best_cost) return;  // bound
    if (idx == flex_ops.size()) {
      // Fixed operands must find distinct representatives among the
      // remaining modules.
      if (fixed_ops.size() > k) return;
      std::array<ModuleSet, kMaxModules> avail;
      for (std::size_t i = 0; i < fixed_ops.size(); ++i) {
        avail[i] = st.placement(fixed_ops[i]) & ~used;
        if (avail[i] == 0) return;
      }
      if (!support::has_distinct_representatives(
              {avail.data(), fixed_ops.size()}, k)) {
        return;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_solutions.clear();
      }
      best_solutions.push_back(choice);
      return;
    }
    const ir::ValueId v = flex_ops[idx];
    const ModuleSet existing = st.placement(v);
    // Try existing copies first (cost 0), then new modules (cost 1).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t m = 0; m < k; ++m) {
        const bool is_existing = holds(existing, m);
        if ((pass == 0) != is_existing) continue;
        if (holds(used, m)) continue;
        used |= module_bit(m);
        choice.push_back(m);
        cost += is_existing ? 0 : 1;
        run(idx + 1);
        cost -= is_existing ? 0 : 1;
        choice.pop_back();
        used &= ~module_bit(m);
      }
    }
  }
};

}  // namespace

std::optional<std::size_t> resolve_instruction(
    PlacementState& st, const std::vector<ir::ValueId>& ops,
    const std::vector<bool>& flexible, support::SplitMix64& rng,
    support::Budget* budget, std::uint64_t node_cap) {
  if (st.combination_conflict_free(ops)) return 0;
  PARMEM_FAULT_POINT("assign.backtrack", budget);
  // A leaf needs |ops| distinct modules, so a tuple wider than k can never
  // reach one: skip the k!-node search (no rng draw, so no output moves).
  if (ops.size() > st.module_count()) return std::nullopt;

  std::vector<ir::ValueId> flex_ops;
  std::vector<ir::ValueId> fixed_ops;
  for (const ir::ValueId v : ops) {
    if (v < flexible.size() && flexible[v]) {
      flex_ops.push_back(v);
    } else {
      fixed_ops.push_back(v);
    }
  }
  if (flex_ops.empty()) return std::nullopt;

  Enumerator e{st, flex_ops, fixed_ops, st.module_count(), {}, 0, 0,
               static_cast<std::size_t>(-1), {}};
  e.budget = budget;
  e.node_cap = node_cap;
  e.run(0);
  if (e.best_solutions.empty()) return std::nullopt;

  const auto& pick = e.best_solutions[static_cast<std::size_t>(
      rng.below(e.best_solutions.size()))];
  std::size_t added = 0;
  for (std::size_t i = 0; i < flex_ops.size(); ++i) {
    if (st.add_copy(flex_ops[i], pick[i])) ++added;
  }
  PARMEM_CHECK(added == e.best_cost, "cost accounting mismatch");
  PARMEM_CHECK(st.combination_conflict_free(ops),
               "instruction still conflicts after resolution");
  return added;
}

BacktrackOutcome backtrack_duplicate(
    PlacementState& st, InstSpan insts,
    const std::vector<bool>& in_unassigned,
    const std::vector<bool>& duplicatable, support::SplitMix64& rng,
    AssignWorkspace* ws) {
  const std::size_t k = st.module_count();

  std::optional<AssignWorkspace> local_ws;  // only built when ws is null
  AssignWorkspace& w = ws != nullptr ? *ws : local_ws.emplace();

  // S_i = instructions with i duplicable operands; processed for i = 1..k.
  // Instructions with zero duplicable operands are conflict-free by
  // construction (their operands were colored) unless forced assignments
  // are present — those are reported unresolved.
  auto& groups = w.inst_groups;
  if (groups.size() < k + 1) groups.resize(k + 1);
  for (std::size_t g = 0; g <= k; ++g) groups[g].clear();
  for (std::size_t i = 0; i < insts.size(); ++i) {
    std::size_t dup = 0;
    for (const ir::ValueId v : insts[i]) {
      if (v < in_unassigned.size() && in_unassigned[v]) ++dup;
    }
    groups[std::min(dup, k)].push_back(static_cast<std::uint32_t>(i));
  }

  BacktrackOutcome out;
  support::Budget* const budget = w.budget;
  const auto out_of_budget = [&] {
    if (budget == nullptr || budget->ok()) return false;
    out.budget_exhausted = true;
    return true;
  };
  for (const std::size_t i : groups[0]) {
    if (out_of_budget()) {
      out.unresolved.push_back(i);
      continue;
    }
    // No V_unassigned member to duplicate: try the wider duplicable mask
    // (arises when earlier STOR2/3 stages fixed all the operands).
    const auto added =
        resolve_instruction(st, insts[i], duplicatable, rng, budget);
    if (added.has_value()) {
      out.copies_added += *added;
    } else {
      out.unresolved.push_back(i);
    }
  }
  for (std::size_t g = 1; g <= k; ++g) {
    for (const std::size_t i : groups[g]) {
      if (out_of_budget()) {
        out.unresolved.push_back(i);
        continue;
      }
      auto added =
          resolve_instruction(st, insts[i], in_unassigned, rng, budget);
      if (!added.has_value()) {
        added = resolve_instruction(st, insts[i], duplicatable, rng, budget);
      }
      if (added.has_value()) {
        out.copies_added += *added;
      } else {
        out.unresolved.push_back(i);
      }
    }
  }

  // A duplicable value that only ever appeared in already-satisfied
  // instructions may still lack its first copy; give it one.
  for (const auto& ops : insts) {
    for (const ir::ValueId v : ops) {
      if (v < in_unassigned.size() && in_unassigned[v] &&
          st.copies(v) == 0) {
        st.add_copy(v, static_cast<std::uint32_t>(rng.below(k)));
        ++out.copies_added;
      }
    }
  }
  std::sort(out.unresolved.begin(), out.unresolved.end());
  out.unresolved.erase(
      std::unique(out.unresolved.begin(), out.unresolved.end()),
      out.unresolved.end());
  return out;
}

}  // namespace parmem::assign
