#include "assign/exact.h"

#include <algorithm>

#include "graph/coloring.h"
#include "support/diagnostics.h"

namespace parmem::assign {
namespace {

/// Branch and bound over per-value module sets, ordered by decreasing
/// conflict involvement. A value's candidate sets are enumerated by copy
/// count (1 copy first), so the first complete solution at a given bound is
/// optimal for that bound.
class MinCopiesSearch {
 public:
  MinCopiesSearch(const ir::AccessStream& stream, std::size_t k,
                  std::uint64_t budget)
      : stream_(stream), k_(k), budget_(budget) {
    std::vector<bool> seen(stream.value_count, false);
    for (const auto& t : stream.tuples) {
      for (const ir::ValueId v : t.operands) {
        if (!seen[v]) {
          seen[v] = true;
          values_.push_back(v);
        }
      }
    }
    // Most-conflicted values first: fail early.
    std::vector<std::size_t> involve(stream.value_count, 0);
    for (const auto& t : stream.tuples) {
      for (const ir::ValueId v : t.operands) ++involve[v];
    }
    std::stable_sort(values_.begin(), values_.end(),
                     [&](ir::ValueId a, ir::ValueId b) {
                       return involve[a] > involve[b];
                     });
    placement_.assign(stream.value_count, 0);
    order_of_.assign(stream.value_count, 0);
    for (std::size_t i = 0; i < values_.size(); ++i) order_of_[values_[i]] = i;
    // Precompute, per value, the tuples it participates in.
    tuples_of_.resize(stream.value_count);
    for (std::size_t t = 0; t < stream.tuples.size(); ++t) {
      for (const ir::ValueId v : stream.tuples[t].operands) {
        tuples_of_[v].push_back(t);
      }
    }
  }

  std::optional<ExactPlacement> run() {
    // Iterative deepening on total copies: |values| (all singles) upward.
    for (std::size_t bound = values_.size();
         bound <= values_.size() * k_; ++bound) {
      exhausted_ = false;
      if (search(0, 0, bound)) {
        ExactPlacement out;
        out.total_copies = bound_used_;
        out.placement = placement_;
        return out;
      }
      if (exhausted_) return std::nullopt;  // node cap reached
    }
    return std::nullopt;  // infeasible (tuple wider than k)
  }

 private:
  /// A tuple is "closed" when every operand has been placed; check closed
  /// tuples as soon as they complete.
  bool tuple_ready(std::size_t t, std::size_t depth) const {
    for (const ir::ValueId v : stream_.tuples[t].operands) {
      // A value is placed iff it appears among the first `depth+1` values.
      if (order_of_[v] > depth) return false;
    }
    return true;
  }

  bool check_tuple(std::size_t t) const {
    return copies_admit_sdr(stream_.tuples[t].operands, placement_, k_);
  }

  bool search(std::size_t idx, std::size_t used, std::size_t bound) {
    if (++nodes_ > budget_) {
      exhausted_ = true;
      return false;
    }
    if (idx == values_.size()) {
      bound_used_ = used;
      return true;
    }
    const ir::ValueId v = values_[idx];
    const std::size_t remaining = values_.size() - idx;  // each needs >= 1
    // Enumerate module sets by ascending copy count.
    for (std::size_t copies = 1; copies <= k_; ++copies) {
      if (used + copies + (remaining - 1) > bound) break;
      for (ModuleSet s = 1; s < (ModuleSet{1} << k_); ++s) {
        if (copy_count(s) != copies) continue;
        placement_[v] = s;
        bool ok = true;
        for (const std::size_t t : tuples_of_[v]) {
          if (tuple_ready(t, idx) && !check_tuple(t)) {
            ok = false;
            break;
          }
        }
        if (ok && search(idx + 1, used + copies, bound)) return true;
        if (exhausted_) {
          placement_[v] = 0;
          return false;
        }
      }
    }
    placement_[v] = 0;
    return false;
  }

  const ir::AccessStream& stream_;
  std::size_t k_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
  std::vector<ir::ValueId> values_;
  std::vector<std::size_t> order_of_;  // position of a value in values_
  std::vector<std::vector<std::size_t>> tuples_of_;
  std::vector<ModuleSet> placement_;
  std::size_t bound_used_ = 0;
};

/// Enumerate vertex subsets by increasing size; test k-colorability of the
/// complement with the exact colorer.
bool colorable_after_removal(const graph::Graph& g, std::size_t k,
                             const std::vector<graph::Vertex>& removed) {
  std::vector<bool> keep(g.vertex_count(), true);
  for (const graph::Vertex v : removed) keep[v] = false;
  std::vector<graph::Vertex> kept;
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    if (keep[v]) kept.push_back(v);
  }
  const graph::Graph sub = g.induced(kept);
  return graph::exact_color(sub, k).has_value();
}

bool removal_rec(const graph::Graph& g, std::size_t k, std::size_t budget,
                 graph::Vertex start, std::vector<graph::Vertex>& removed) {
  if (colorable_after_removal(g, k, removed)) return true;
  if (budget == 0) return false;
  for (graph::Vertex v = start; v < g.vertex_count(); ++v) {
    removed.push_back(v);
    if (removal_rec(g, k, budget - 1, v + 1, removed)) return true;
    removed.pop_back();
  }
  return false;
}

}  // namespace

std::optional<ExactPlacement> exact_min_copies(const ir::AccessStream& stream,
                                               std::size_t module_count,
                                               std::uint64_t node_budget) {
  PARMEM_CHECK(module_count >= 1 && module_count <= 16,
               "exact solver supports up to 16 modules");
  for (const auto& t : stream.tuples) {
    if (t.operands.size() > module_count) return std::nullopt;  // infeasible
  }
  return MinCopiesSearch(stream, module_count, node_budget).run();
}

std::size_t exact_min_removals(const graph::Graph& g, std::size_t k) {
  for (std::size_t budget = 0; budget <= g.vertex_count(); ++budget) {
    std::vector<graph::Vertex> removed;
    if (removal_rec(g, k, budget, 0, removed)) return removed.size();
  }
  PARMEM_UNREACHABLE("removing all vertices is always colorable");
}

}  // namespace parmem::assign
