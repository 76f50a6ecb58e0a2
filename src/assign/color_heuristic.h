// The paper's graph-coloring heuristic (Fig. 4), extended with the two
// hooks the rest of the system needs:
//
//  * pre-colored vertices — required by the atom-by-atom composition
//    (§2.1: color each clique-separator atom separately) and by the STOR2 /
//    STOR3 strategies, where earlier stages fix some bindings;
//  * never-remove vertices — mutable program variables must not be
//    duplicated (copies would go stale), so instead of moving them to
//    V_unassigned when no color is left, they are *forced* into the module
//    that minimizes their conflict weight and reported separately.
//
// Faithful details: edge weights are wt(u→v) = 0 if deg(u) < k else
// conf(u, v); the next vertex is the one with maximum urgency
// U(v) = Σ_{assigned neighbors w} wt(w→v) / K(v), where K(v) is the number
// of modules still usable for v; K(v) = 0 means infinite urgency, and such
// a vertex is removed as soon as it is popped. Ties break on the static
// weight sum S(v), then on vertex id — which also covers seeding: before
// anything is colored every urgency is 0/k, so the first vertex picked is
// argmax S, the paper's n_first.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "assign/conflict_graph.h"
#include "assign/module_set.h"
#include "assign/workspace.h"

namespace parmem::support {
class Budget;
}

namespace parmem::assign {

class AtomMemoStore;  // incremental.h

/// How the heuristic picks among several admissible modules
/// ("ASSIGN(n_next) = one of the available modules", Fig. 4).
enum class ModulePick : std::uint8_t {
  kLeastLoaded,  // balance values across modules (default)
  kLowestIndex,  // always the smallest admissible module index
};

struct ColorOptions {
  std::size_t module_count = 8;
  /// Decompose into clique-separator atoms first (§2.1). Turning this off
  /// colors the whole graph in one sweep (the atoms-ablation bench).
  bool use_atoms = true;
  ModulePick pick = ModulePick::kLeastLoaded;
  /// Cooperative budget. Null = unlimited. On exhaustion mid-atom the
  /// urgency-heap sweep is abandoned and the remaining undecided vertices
  /// are finished greedily: duplicatable ones go to V_unassigned,
  /// never-remove ones are forced into their cheapest module — linear work,
  /// and the duplication tiers below clean up.
  support::Budget* budget = nullptr;
  /// Speculative coloring (speculate.h): an atom with at least this many
  /// undecided vertices is colored by optimistic chunked rounds with
  /// conflict repair instead of the sequential urgency heap. 0 (default)
  /// disables the tier. The result is a pure function of the input and
  /// `speculate_chunk`.
  std::size_t speculate_threshold = 0;
  /// Vertices per speculative chunk. Part of the deterministic schedule:
  /// each chunk runs its own urgency sweep over a snapshot, so a different
  /// chunk size may produce a different (still conflict-free) coloring.
  std::size_t speculate_chunk = 256;
  /// Decomposition memo (incremental.h). When set, the clique-separator
  /// decomposition is reused under a structure-only hash. Null (default) =
  /// off. Pure memoization: output is byte-identical to a memo-less run for
  /// any store state.
  AtomMemoStore* memo_store = nullptr;
};

inline constexpr std::int32_t kUnassignedModule = -1;

/// Work accounting for the speculative coloring tier (all zeros when the
/// tier never engaged). Every field is a pure function of the input and the
/// (threshold, chunk) configuration.
struct SpeculateStats {
  std::uint64_t atoms = 0;      // atoms colored to completion by the tier
  std::uint64_t rounds = 0;     // optimistic rounds across those atoms
  std::uint64_t chunks = 0;     // chunk sweeps run across all rounds
  std::uint64_t conflicts = 0;  // tentative picks rejected by a neighbor
  std::uint64_t repaired = 0;   // vertices committed after >= 1 rejection
  std::uint64_t reclaimed = 0;  // removals undone by the swap post-pass
  std::uint64_t fallbacks = 0;  // atoms abandoned to the sequential sweep

  void merge(const SpeculateStats& o) {
    atoms += o.atoms;
    rounds += o.rounds;
    chunks += o.chunks;
    conflicts += o.conflicts;
    repaired += o.repaired;
    reclaimed += o.reclaimed;
    fallbacks += o.fallbacks;
  }
};

struct ColorResult {
  /// Per conflict-graph vertex: module index, or kUnassignedModule if the
  /// vertex was removed (V_unassigned).
  std::vector<std::int32_t> module;
  /// Vertices removed from the graph, in removal order (V_unassigned).
  std::vector<graph::Vertex> unassigned;
  /// Never-remove vertices that had to be forced into a conflicting module.
  std::vector<graph::Vertex> forced;
  /// Clique-separator atoms in processing order (reverse generation order),
  /// as vertex lists; empty when atoms were disabled. The assigner's
  /// per-atom duplication partitions instructions along these.
  std::vector<std::vector<graph::Vertex>> atoms;
  /// True iff the budget tripped during coloring and some vertices were
  /// finished by the greedy completion instead of the urgency heap.
  bool budget_exhausted = false;
  /// Speculative-tier accounting (zeros unless speculate_threshold engaged).
  SpeculateStats speculative;
  /// Decomposition-memo accounting: one of the two is 1 when memo_store was
  /// set and the graph was decomposed, both are 0 otherwise.
  std::uint64_t memo_decomp_hits = 0;
  std::uint64_t memo_decomp_misses = 0;
};

/// Max-urgency comparison over heap entries (Fig. 4 ordering): U = w/kk with
/// kk == 0 treated as +inf; ties break on larger s, then smaller vertex id.
/// Shared between the sequential sweep's indexed urgency heap and the
/// speculative tier's serial-tail sort; inline because it is the comparator
/// of every sift the heap makes — an out-of-line call per comparison
/// dominates the sweep on large atoms.
inline bool less_urgent(const AssignWorkspace::HeapEntry& a,
                        const AssignWorkspace::HeapEntry& b) {
  const bool a_inf = a.kk == 0, b_inf = b.kk == 0;
  if (a_inf != b_inf) return !a_inf;  // a less urgent iff b is infinite
  if (!a_inf) {
    const std::uint64_t lhs = a.w * b.kk;  // cross-multiplied compare
    const std::uint64_t rhs = b.w * a.kk;
    if (lhs != rhs) return lhs < rhs;
  }
  if (a.s != b.s) return a.s < b.s;
  return a.v > b.v;
}

/// The module a never-remove vertex is forced into when none is free: the
/// least Σ max(conf, 1) to neighbors that `module_of` places there, ties to
/// the lighter `load`, then the lower index. Shared with the speculative
/// tier, whose neighbors' modules live in its own tentative state.
template <typename ModuleOf>
std::uint32_t cheapest_module(const ConflictGraph& cg, graph::Vertex v,
                              ModuleOf module_of,
                              const std::vector<std::size_t>& load,
                              std::size_t k) {
  std::array<std::uint64_t, kMaxModules> cost{};
  const auto nbrs = cg.graph().neighbors(v);
  const auto wts = cg.conf_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const std::int32_t m = module_of(nbrs[i]);
    if (m >= 0) {
      cost[static_cast<std::uint32_t>(m)] +=
          std::max<std::uint32_t>(wts[i], 1u);
    }
  }
  std::uint32_t best = 0;
  for (std::uint32_t m = 1; m < k; ++m) {
    if (cost[m] < cost[best] ||
        (cost[m] == cost[best] && load[m] < load[best])) {
      best = m;
    }
  }
  return best;
}

/// Runs the heuristic.
/// @param precolored per-vertex module or kUnassignedModule; empty == none.
/// @param never_remove per-vertex flag; empty == all removable.
/// @param module_load if non-null, running count of values per module shared
///        across calls (STOR2/3 stages); updated in place.
/// @param ws if non-null, reusable scratch (see workspace.h); a local
///        workspace is used otherwise. Purely a performance knob.
ColorResult color_conflict_graph(const ConflictGraph& cg,
                                 const ColorOptions& opts,
                                 const std::vector<std::int32_t>& precolored = {},
                                 const std::vector<bool>& never_remove = {},
                                 std::vector<std::size_t>* module_load = nullptr,
                                 AssignWorkspace* ws = nullptr);

}  // namespace parmem::assign
