#include "assign/backtrack.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <unordered_map>

#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"

namespace parmem::assign {
namespace {

/// Memoised search over module choices for the flexible operands. The
/// search below a node depends only on `used`, the modules taken so far
/// (the next operand is flex_ops[popcount(used)]), so each state is solved
/// once, keeping the fewest new copies a feasible leaf below it needs and
/// how many leaves reach that minimum. Children follow Fig. 6's order:
/// existing copies first, then new modules, each ascending. Unranking one
/// draw along that order picks the leaf a walk-order list of every cheapest
/// leaf would hold at that index. Counts saturate at 2^64 - 1 (only k = 32
/// with f >= 14 gets there); no child's count exceeds its parent's, so a
/// draw still unranks to a cheapest leaf, one of the first 2^64 - 1.
struct Search {
  struct Best {
    std::size_t cost = 0;     // new copies of the cheapest feasible leaf
    std::uint64_t count = 0;  // leaves at that cost; 0 = none is feasible
  };

  const PlacementState& st;
  const std::vector<ir::ValueId>& flex_ops;
  const std::vector<ir::ValueId>& fixed_ops;
  std::size_t k;
  support::Budget* budget;  // charged one step per state
  std::unordered_map<ModuleSet, Best> memo;

  /// Calls visit(m, fresh) for each module the next flexible operand can
  /// take, in walk order, until it returns false; `fresh` marks a new copy.
  template <typename Visit>
  void for_each_child(ModuleSet used, Visit visit) const {
    const ModuleSet existing = st.placement(flex_ops[copy_count(used)]);
    for (const bool fresh : {false, true}) {
      ModuleSet free = (fresh ? ~existing : existing) & ~used & all_modules(k);
      for (; free != 0; free &= free - 1) {
        const auto m = static_cast<std::uint32_t>(std::countr_zero(free));
        if (!visit(m, fresh)) return;
      }
    }
  }

  /// Whether the fixed operands find distinct modules outside `used`.
  bool fixed_ops_fit(ModuleSet used) const {
    std::array<ModuleSet, kMaxModules> avail;
    for (std::size_t i = 0; i < fixed_ops.size(); ++i) {
      avail[i] = st.placement(fixed_ops[i]) & ~used;
      if (avail[i] == 0) return false;
    }
    return support::has_distinct_representatives(
        {avail.data(), fixed_ops.size()}, k);
  }

  /// After a budget trip the result is partial; the caller discards it.
  Best solve(ModuleSet used) {
    if (const auto it = memo.find(used); it != memo.end()) return it->second;
    if (budget != nullptr && !budget->charge()) return {};
    Best best;
    if (copy_count(used) == flex_ops.size()) {
      best.count = fixed_ops_fit(used) ? 1 : 0;
    } else {
      for_each_child(used, [&](std::uint32_t m, bool fresh) {
        const Best sub = solve(used | module_bit(m));
        const std::size_t cost = sub.cost + (fresh ? 1 : 0);
        if (sub.count != 0 && (best.count == 0 || cost < best.cost)) {
          best = {cost, sub.count};
        } else if (sub.count != 0 && cost == best.cost) {
          best.count = sub.count > ~best.count ? ~std::uint64_t{0}
                                               : best.count + sub.count;
        }
        return true;
      });
    }
    memo.emplace(used, best);
    return best;
  }
};

}  // namespace

std::optional<std::size_t> resolve_instruction(
    PlacementState& st, const std::vector<ir::ValueId>& ops,
    const std::vector<bool>& flexible, support::SplitMix64& rng,
    support::Budget* budget) {
  if (st.combination_conflict_free(ops)) return 0;
  PARMEM_FAULT_POINT("assign.backtrack", budget);
  // A leaf needs |ops| distinct modules, so a tuple wider than k can never
  // reach one: skip the search (no rng draw, so no output moves).
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

  Search search{st, flex_ops, fixed_ops, st.module_count(), budget, {}};
  const Search::Best root = search.solve(0);
  if ((budget != nullptr && budget->exhausted()) || root.count == 0) {
    return std::nullopt;
  }

  // Unrank one draw: each operand skips the cheapest subtrees ahead of the
  // one holding the draw and takes that subtree's module.
  std::uint64_t r = rng.below(root.count);
  std::size_t cost = root.cost;
  std::size_t added = 0;
  ModuleSet used = 0;
  for (const ir::ValueId v : flex_ops) {
    search.for_each_child(used, [&](std::uint32_t m, bool fresh) {
      const Search::Best& sub = search.memo.at(used | module_bit(m));
      if (sub.count == 0 || sub.cost + (fresh ? 1 : 0) != cost) return true;
      if (r >= sub.count) {
        r -= sub.count;
        return true;
      }
      used |= module_bit(m);
      cost -= fresh ? 1 : 0;
      if (st.add_copy(v, m)) ++added;
      return false;
    });
  }
  PARMEM_CHECK(copy_count(used) == flex_ops.size() && added == root.cost,
               "cost accounting mismatch");
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
  for (std::size_t g = 0; g <= k; ++g) {
    for (const std::size_t i : groups[g]) {
      if (out_of_budget()) {
        out.unresolved.push_back(i);
        continue;
      }
      // Group 0 has no V_unassigned member to duplicate, so only the wider
      // duplicable mask can help (arises when earlier STOR2/3 stages fixed
      // all the operands).
      std::optional<std::size_t> added;
      if (g > 0) {
        added = resolve_instruction(st, insts[i], in_unassigned, rng, budget);
      }
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
  // A trip inside the last search leaves its instruction unresolved; the
  // caller's fix-up must still learn of it.
  out_of_budget();

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
