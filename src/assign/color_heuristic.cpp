#include "assign/color_heuristic.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "assign/incremental.h"
#include "assign/module_set.h"
#include "assign/speculate.h"

#include "graph/atoms.h"
#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "telemetry/telemetry.h"

namespace parmem::assign {

// The urgency comparison (less_urgent) lives in the header: it is shared
// with the speculative tier's serial tail and must inline into both sweeps.
namespace {

using graph::Vertex;
using HeapEntry = AssignWorkspace::HeapEntry;

// The urgency heap is indexed: each undecided vertex has exactly one entry,
// and ws.heap_pos tracks where it sits. A neighbour update only raises
// urgency (w grows, kk shrinks), so the entry sifts up in place; a pop
// takes the root and sifts the last entry down. less_urgent is a strict
// total order, so the pop sequence is the one any max-heap over the
// current keys yields.

void sift_up(AssignWorkspace& ws, std::size_t i) {
  auto& heap = ws.heap;
  const HeapEntry e = heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less_urgent(heap[parent], e)) break;
    heap[i] = heap[parent];
    ws.heap_pos[heap[i].v] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap[i] = e;
  ws.heap_pos[e.v] = static_cast<std::uint32_t>(i);
}

void sift_down(AssignWorkspace& ws, std::size_t i) {
  auto& heap = ws.heap;
  const std::size_t n = heap.size();
  const HeapEntry e = heap[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && less_urgent(heap[child], heap[child + 1])) ++child;
    if (!less_urgent(e, heap[child])) break;
    heap[i] = heap[child];
    ws.heap_pos[heap[i].v] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap[i] = e;
  ws.heap_pos[e.v] = static_cast<std::uint32_t>(i);
}

/// Removes and returns the most urgent entry.
HeapEntry pop_most_urgent(AssignWorkspace& ws) {
  auto& heap = ws.heap;
  const HeapEntry top = heap.front();
  heap.front() = heap.back();
  heap.pop_back();
  if (!heap.empty()) sift_down(ws, 0);
  return top;
}

/// Colors one atom; `module` carries decisions across atoms (vertices with
/// module >= 0 are fixed, vertices in `decided_unassigned` stay removed).
///
/// All per-vertex working state lives in `ws` (epoch-stamped, reusable
/// across atoms); edge weights come from the CSR-parallel conf span — the
/// inner loops read neighbors and weights at the same index and never pay
/// a point lookup.
void color_atom(const ConflictGraph& cg, const std::vector<Vertex>& atom,
                const ColorOptions& opts, std::vector<std::int32_t>& module,
                std::vector<bool>& decided, const std::vector<bool>& never_remove,
                std::vector<std::size_t>& load, AssignWorkspace& ws,
                ColorResult& result) {
  PARMEM_SPAN("assign.color_atom");
  PARMEM_FAULT_POINT("assign.color_atom", opts.budget);
  const std::size_t k = opts.module_count;
  const graph::Graph& g = cg.graph();

  ws.begin_atom(g.vertex_count());
  for (const Vertex v : atom) ws.mark_atom_member(v);

  // Atom-local degree drives the Fig. 4 weight rule: edges leaving a vertex
  // of degree < k weigh zero, i.e. wt(v → w) = deg(v) < k ? 0 : conf(v, w).
  for (const Vertex v : atom) {
    std::uint32_t d = 0;
    for (const Vertex w : g.neighbors(v)) {
      if (ws.in_atom(w)) ++d;
    }
    ws.deg[v] = d;
  }

  // Static weight sums S(v) over atom-internal edges.
  for (const Vertex v : atom) {
    if (ws.deg[v] < k) continue;  // every outgoing weight is zero
    const auto nbrs = g.neighbors(v);
    const auto wts = cg.conf_weights(v);
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (ws.in_atom(nbrs[i])) s += wts[i];
    }
    ws.s_sum[v] = s;
  }

  // Work list: undecided atom vertices. Initialize urgency contributions
  // from vertices decided in earlier atoms / stages (pre-colored separators).
  for (const Vertex v : atom) {
    if (decided[v]) continue;
    ws.rest.push_back(v);
    const auto nbrs = g.neighbors(v);
    const auto wts = cg.conf_weights(v);
    std::uint64_t wa = 0;
    std::uint32_t nm = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Vertex w = nbrs[i];
      if (module[w] >= 0) {
        // wt(w → v) for atom members, plain conf across the atom boundary.
        if (!(ws.in_atom(w) && ws.deg[w] < k)) wa += wts[i];
        nm |= 1u << static_cast<std::uint32_t>(module[w]);
      }
    }
    ws.w_assigned[v] = wa;
    ws.neighbor_mods[v] = nm;
  }

  // Speculative tier: a large enough atom goes to the optimistic
  // chunk-parallel rounds (speculate.h) instead of the urgency heap. On
  // budget exhaustion the speculation is discarded wholesale and the
  // sequential sweep below runs under the remaining budget, exactly as if
  // the tier had never engaged.
  if (opts.speculate_threshold != 0 &&
      ws.rest.size() >= opts.speculate_threshold) {
    if (speculate_color_atom(cg, opts, module, decided, never_remove, load,
                             ws, result)) {
      return;
    }
  }

  const auto module_of = [&](Vertex w) { return module[w]; };
  const auto k_of = [&](Vertex v) -> std::uint32_t {
    const std::uint32_t used =
        static_cast<std::uint32_t>(std::popcount(ws.neighbor_mods[v]));
    return used >= k ? 0u : static_cast<std::uint32_t>(k) - used;
  };

  auto& heap = ws.heap;
  for (const Vertex v : ws.rest) {
    ws.heap_pos[v] = static_cast<std::uint32_t>(heap.size());
    heap.push_back({ws.w_assigned[v], k_of(v), ws.s_sum[v], v});
  }
  for (std::size_t i = heap.size() / 2; i-- > 0;) sift_down(ws, i);

  // One step per decided vertex.
  support::Budget* const budget = opts.budget;
  while (!heap.empty()) {
    if (budget != nullptr && !budget->charge(1)) {
      // Budget tripped mid-atom: finish the remaining vertices greedily in
      // work-list order — duplicatable ones join V_unassigned (the
      // degraded duplication tiers give them copies), never-remove ones
      // are forced into their cheapest module. Linear, heap-free, and
      // every vertex still ends decided.
      result.budget_exhausted = true;
      for (const Vertex v : ws.rest) {
        if (decided[v]) continue;
        decided[v] = true;
        if (never_remove.empty() || !never_remove[v]) {
          result.unassigned.push_back(v);
          continue;
        }
        const std::uint32_t best = cheapest_module(cg, v, module_of, load, k);
        module[v] = static_cast<std::int32_t>(best);
        ++load[best];
        result.forced.push_back(v);
      }
      break;
    }
    const HeapEntry e = pop_most_urgent(ws);
    const Vertex v = e.v;
    decided[v] = true;

    std::int32_t chosen = kUnassignedModule;
    if (e.kk == 0) {
      const bool keep = !never_remove.empty() && never_remove[v];
      if (!keep) {
        result.unassigned.push_back(v);
      } else {
        // Forced assignment: module minimizing conflict weight with already
        // assigned neighbors (the value stays mutable, so it cannot be
        // duplicated; the residual conflicts will serialize at run time).
        chosen = static_cast<std::int32_t>(
            cheapest_module(cg, v, module_of, load, k));
        result.forced.push_back(v);
      }
    } else {
      // Pick among admissible modules.
      std::int32_t best = -1;
      for (std::uint32_t m = 0; m < k; ++m) {
        if (ws.neighbor_mods[v] & (1u << m)) continue;
        if (best < 0) {
          best = static_cast<std::int32_t>(m);
        } else if (opts.pick == ModulePick::kLeastLoaded &&
                   load[m] < load[static_cast<std::uint32_t>(best)]) {
          best = static_cast<std::int32_t>(m);
        }
      }
      PARMEM_CHECK(best >= 0, "K(v) > 0 but no admissible module");
      chosen = best;
    }

    if (chosen >= 0) {
      module[v] = chosen;
      ++load[static_cast<std::uint32_t>(chosen)];
      // Update neighbors' urgency state.
      const auto nbrs = g.neighbors(v);
      const auto wts = cg.conf_weights(v);
      const bool v_zero = ws.deg[v] < k;  // wt(v → w) vanishes
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const Vertex w = nbrs[i];
        if (decided[w] || !ws.in_atom(w)) continue;
        HeapEntry& entry = heap[ws.heap_pos[w]];
        if (!v_zero) entry.w += wts[i];
        ws.neighbor_mods[w] |= 1u << static_cast<std::uint32_t>(chosen);
        entry.kk = k_of(w);
        sift_up(ws, ws.heap_pos[w]);
      }
    }
  }
}

/// Per-atom coloring. Atoms couple two ways: a later atom starts from the
/// separator vertices its predecessors colored, and every pick reads the
/// shared module-load counters. Both couplings are cut at a fixed point:
/// all vertices shared between atoms (the union of the clique separators)
/// are colored first; each atom then colors its interior as a pure function
/// of that frontier and a load snapshot. Interiors of distinct atoms share
/// no edge (a vertex in exactly one atom has its whole neighborhood inside
/// it), so the atoms are independent and their results merge in stable atom
/// order.
void color_atoms(const ConflictGraph& cg,
                 const std::vector<graph::Atom>& atoms,
                 const ColorOptions& opts, std::vector<bool>& decided,
                 const std::vector<bool>& never_remove,
                 std::vector<std::size_t>& load, AssignWorkspace& ws,
                 ColorResult& result) {
  const std::size_t n = cg.vertex_count();

  std::vector<std::uint8_t> occur(n, 0);
  for (const graph::Atom& a : atoms) {
    for (const Vertex v : a.vertices) {
      if (occur[v] < 2) ++occur[v];
    }
  }
  std::vector<Vertex> shared;
  for (Vertex v = 0; v < n; ++v) {
    if (occur[v] >= 2) shared.push_back(v);
  }
  if (!shared.empty()) {
    color_atom(cg, shared, opts, result.module, decided, never_remove, load,
               ws, result);
  }

  // Every atom reads the load vector as it stood before the loop: the loads
  // the atoms add are summed apart and applied after it. Module and decided
  // changes apply at once, since they land on the atom's interior, which no
  // other atom reads.
  std::vector<std::size_t> added_load(load.size(), 0);
  for (const graph::Atom& a : atoms) {
    const std::vector<Vertex>& atom = a.vertices;
    // The workspace also owns the frontier snapshot, refreshed at the
    // atom's vertices only: every undecided atom vertex is interior, so the
    // sweep (and the speculative tier) read module/decided nowhere else.
    // That keeps an atom O(atom), not O(graph).
    ws.snapshot_atom(atom, result.module, decided, load);
    ColorResult local;
    color_atom(cg, atom, opts, ws.module_snapshot, ws.decided_snapshot,
               never_remove, ws.load_snapshot, ws, local);
    for (const Vertex v : atom) {
      if (!decided[v] && ws.module_snapshot[v] >= 0) {
        result.module[v] = ws.module_snapshot[v];
        decided[v] = true;
      }
    }
    for (const Vertex v : local.unassigned) {
      decided[v] = true;
      result.unassigned.push_back(v);
    }
    result.forced.insert(result.forced.end(), local.forced.begin(),
                         local.forced.end());
    result.budget_exhausted = result.budget_exhausted || local.budget_exhausted;
    result.speculative.merge(local.speculative);
    for (std::size_t m = 0; m < load.size(); ++m) {
      added_load[m] += ws.load_snapshot[m] - load[m];
    }
  }
  for (std::size_t m = 0; m < load.size(); ++m) load[m] += added_load[m];
}

}  // namespace

ColorResult color_conflict_graph(const ConflictGraph& cg,
                                 const ColorOptions& opts,
                                 const std::vector<std::int32_t>& precolored,
                                 const std::vector<bool>& never_remove,
                                 std::vector<std::size_t>* module_load,
                                 AssignWorkspace* ws) {
  const std::size_t n = cg.vertex_count();
  const std::size_t k = opts.module_count;
  PARMEM_CHECK(k >= 1 && k <= kMaxModules, "module count out of range");

  ColorResult result;
  result.module.assign(n, kUnassignedModule);
  std::vector<bool> decided(n, false);

  std::optional<AssignWorkspace> local_ws;  // only built when ws is null
  AssignWorkspace& wks = ws != nullptr ? *ws : local_ws.emplace();

  std::vector<std::size_t> local_load;
  std::vector<std::size_t>& load =
      module_load != nullptr ? *module_load : local_load;
  if (load.size() < k) load.assign(k, 0);

  if (!precolored.empty()) {
    PARMEM_CHECK(precolored.size() == n, "precolored size mismatch");
    for (graph::Vertex v = 0; v < n; ++v) {
      if (precolored[v] >= 0) {
        PARMEM_CHECK(static_cast<std::size_t>(precolored[v]) < k,
                     "precolored module out of range");
        result.module[v] = precolored[v];
        decided[v] = true;
      }
    }
  }
  if (!never_remove.empty()) {
    PARMEM_CHECK(never_remove.size() == n, "never_remove size mismatch");
  }

  if (opts.use_atoms && n > 0) {
    auto atoms = [&] {
      PARMEM_SPAN("assign.atoms");  // MCS-M + clique-separator decomposition
      // The decomposition reads only the graph structure, so the memo can
      // reuse it across compiles whenever the structure hash matches —
      // valid under a budget too (nothing in the decomposition polls it).
      if (opts.memo_store == nullptr) {
        return graph::decompose_by_clique_separators(cg.graph());
      }
      bool reused = false;
      auto memo_atoms = memo_decompose(*opts.memo_store, cg, &reused);
      ++(reused ? result.memo_decomp_hits : result.memo_decomp_misses);
      return memo_atoms;
    }();
    // Reverse generation order: each atom then meets the already-colored
    // part exactly in its clique separator (see atoms.h).
    std::reverse(atoms.begin(), atoms.end());
    color_atoms(cg, atoms, opts, decided, never_remove, load, wks, result);
    result.atoms.reserve(atoms.size());
    for (graph::Atom& atom : atoms) {
      result.atoms.push_back(std::move(atom.vertices));
    }
  } else if (n > 0) {
    std::vector<graph::Vertex> all(n);
    for (graph::Vertex v = 0; v < n; ++v) all[v] = v;
    color_atom(cg, all, opts, result.module, decided, never_remove, load, wks,
               result);
  }

  for (graph::Vertex v = 0; v < n; ++v) {
    PARMEM_CHECK(decided[v], "vertex left undecided after coloring");
  }
  return result;
}

}  // namespace parmem::assign
