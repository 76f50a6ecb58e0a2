// Assignment hot-path bench: legacy (hash-map conflict graph, per-call
// temporaries) vs the packed CSR pipeline, phase by phase.
//
// The `legacy` namespace below is a verbatim copy of the pre-CSR
// implementation — map-based conf(), priority_queue MCS-M with per-step
// O(n) allocations, per-atom O(V) coloring temporaries, std::find-scanning
// placement — so both sides are timed live on the same host and compiler.
// Only its atom loop follows the current atom-task schedule (separators
// first, then each atom from the frontier), the one coloring order left.
// Per stream the bench runs a serial STOR1 pipeline (conflict-graph build,
// Fig. 4 coloring, Fig. 7 hitting-set duplication) through both
// implementations, asserts the results are byte-identical, and writes a
// JSON report with per-phase times and speedups.
//
// Usage: assign_hotpath [--quick] [--out PATH]
//   --quick  paper workloads + syn_small only, one rep (CI smoke)
//   --out    JSON report path (default BENCH_assign.json)
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/atoms.h"
#include "graph/mcsm.h"

#include "analysis/pipeline.h"
#include "assign/backtrack.h"
#include "assign/color_heuristic.h"
#include "assign/conflict_graph.h"
#include "assign/hitting_set.h"
#include "assign/hitting_set_approach.h"
#include "assign/module_set.h"
#include "assign/placement_state.h"
#include "bench_json.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::assign {
namespace legacy {

using graph::Vertex;

// ---- seed ConflictGraph: edges via add_edge, conf in a hash map ----

struct LegacyConflictGraph {
  graph::Graph g{0};
  std::vector<ir::ValueId> vertex_to_value;
  std::vector<std::int64_t> value_to_vertex;
  std::unordered_map<std::uint64_t, std::uint32_t> conf_map;

  static std::uint64_t key(Vertex u, Vertex v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  std::size_t vertex_count() const { return g.vertex_count(); }
  ir::ValueId value_of(Vertex v) const { return vertex_to_value[v]; }
  std::int64_t vertex_of(ir::ValueId id) const {
    return id < value_to_vertex.size() ? value_to_vertex[id] : -1;
  }
  std::uint32_t conf(Vertex u, Vertex v) const {
    const auto it = conf_map.find(key(u, v));
    return it == conf_map.end() ? 0u : it->second;
  }
};

LegacyConflictGraph build_from_insts(
    std::size_t value_count,
    const std::vector<std::vector<ir::ValueId>>& insts) {
  LegacyConflictGraph cg;
  cg.value_to_vertex.assign(value_count, -1);
  for (const auto& ops : insts) {
    for (const ir::ValueId v : ops) {
      if (cg.value_to_vertex[v] < 0) {
        cg.value_to_vertex[v] =
            static_cast<std::int64_t>(cg.vertex_to_value.size());
        cg.vertex_to_value.push_back(v);
      }
    }
  }
  cg.g = graph::Graph(cg.vertex_to_value.size());
  for (const auto& ops : insts) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto u = static_cast<Vertex>(cg.value_to_vertex[ops[i]]);
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const auto v = static_cast<Vertex>(cg.value_to_vertex[ops[j]]);
        cg.g.add_edge(u, v);
        ++cg.conf_map[LegacyConflictGraph::key(u, v)];
      }
    }
  }
  return cg;
}

// ---- seed MCS-M (priority_queue Dijkstra, per-step O(n) allocations) ----

std::vector<Vertex> reachable_through_lower_weights(
    const graph::Graph& graph, Vertex x, const std::vector<bool>& numbered,
    const std::vector<std::int64_t>& weight) {
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> best(graph.vertex_count(), kInf);
  using Item = std::pair<std::int64_t, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (const Vertex y : graph.neighbors(x)) {
    if (numbered[y]) continue;
    best[y] = -1;
    heap.emplace(-1, y);
  }
  std::vector<Vertex> out;
  while (!heap.empty()) {
    const auto [g, v] = heap.top();
    heap.pop();
    if (g != best[v]) continue;
    if (g < weight[v]) out.push_back(v);
    const std::int64_t via = std::max(g, weight[v]);
    for (const Vertex w : graph.neighbors(v)) {
      if (numbered[w] || w == x) continue;
      if (via < best[w]) {
        best[w] = via;
        heap.emplace(via, w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

graph::Triangulation mcs_m(const graph::Graph& g) {
  const std::size_t n = g.vertex_count();
  graph::Triangulation result;
  result.order.assign(n, 0);
  std::vector<std::int64_t> weight(n, 0);
  std::vector<bool> numbered(n, false);
  for (std::size_t step = n; step > 0; --step) {
    Vertex x = 0;
    std::int64_t best = -1;
    for (Vertex v = 0; v < n; ++v) {
      if (!numbered[v] && weight[v] > best) {
        best = weight[v];
        x = v;
      }
    }
    const auto reached =
        reachable_through_lower_weights(g, x, numbered, weight);
    for (const Vertex y : reached) {
      weight[y] += 1;
      if (!g.has_edge(x, y)) {
        result.fill.emplace_back(std::min(x, y), std::max(x, y));
      }
    }
    numbered[x] = true;
    result.order[step - 1] = x;
  }
  std::sort(result.fill.begin(), result.fill.end());
  result.fill.erase(std::unique(result.fill.begin(), result.fill.end()),
                    result.fill.end());
  return result;
}

// ---- seed clique-separator decomposition ----

std::vector<graph::Atom> decompose_by_clique_separators(
    const graph::Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<graph::Atom> atoms;
  if (n == 0) return atoms;
  const graph::Triangulation tri = legacy::mcs_m(g);

  std::vector<std::vector<Vertex>> h_adj(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    h_adj[v].assign(nb.begin(), nb.end());
  }
  for (const auto& [u, v] : tri.fill) {
    h_adj[u].insert(std::lower_bound(h_adj[u].begin(), h_adj[u].end(), v), v);
    h_adj[v].insert(std::lower_bound(h_adj[v].begin(), h_adj[v].end(), u), u);
  }

  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[tri.order[i]] = i;
  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;

  for (std::size_t i = 0; i < n; ++i) {
    const Vertex x = tri.order[i];
    if (!alive[x]) continue;
    std::vector<Vertex> sep;
    for (const Vertex w : h_adj[x]) {
      if (pos[w] > i && alive[w]) sep.push_back(w);
    }
    if (sep.empty()) continue;
    if (!g.is_clique(sep)) continue;
    std::vector<bool> mask = alive;
    for (const Vertex s : sep) mask[s] = false;
    std::vector<Vertex> comp = g.component_of(x, mask);
    if (comp.size() + sep.size() >= alive_count) continue;
    std::vector<bool> in_comp(n, false);
    for (const Vertex c : comp) in_comp[c] = true;
    std::vector<bool> in_sep(n, false);
    for (const Vertex s : sep) in_sep[s] = true;
    bool minimal = true;
    for (const Vertex s : sep) {
      bool to_comp = false, to_rest = false;
      for (const Vertex w : g.neighbors(s)) {
        if (!alive[w]) continue;
        if (in_comp[w]) to_comp = true;
        else if (!in_sep[w]) to_rest = true;
      }
      if (!to_comp || !to_rest) {
        minimal = false;
        break;
      }
    }
    if (!minimal) continue;

    graph::Atom atom;
    atom.vertices = comp;
    atom.vertices.insert(atom.vertices.end(), sep.begin(), sep.end());
    std::sort(atom.vertices.begin(), atom.vertices.end());
    atom.separator = sep;
    atoms.push_back(std::move(atom));
    for (const Vertex c : comp) {
      alive[c] = false;
      --alive_count;
    }
  }

  std::vector<bool> emitted(n, false);
  for (Vertex v = 0; v < n; ++v) {
    if (!alive[v] || emitted[v]) continue;
    graph::Atom last;
    last.vertices = g.component_of(v, alive);
    for (const Vertex u : last.vertices) emitted[u] = true;
    atoms.push_back(std::move(last));
  }
  return atoms;
}

// ---- seed Fig. 4 coloring (per-atom O(V) temporaries, conf via map) ----

void color_atom(const LegacyConflictGraph& cg, const std::vector<Vertex>& atom,
                const ColorOptions& opts, std::vector<std::int32_t>& module,
                std::vector<bool>& decided,
                const std::vector<bool>& never_remove,
                std::vector<std::size_t>& load, ColorResult& result) {
  const std::size_t k = opts.module_count;
  const graph::Graph& g = cg.g;

  std::vector<bool> in_atom(g.vertex_count(), false);
  for (const Vertex v : atom) in_atom[v] = true;

  std::vector<std::size_t> deg(g.vertex_count(), 0);
  for (const Vertex v : atom) {
    for (const Vertex w : g.neighbors(v)) {
      if (in_atom[w]) ++deg[v];
    }
  }
  const auto wt = [&](Vertex from, Vertex to) -> std::uint64_t {
    return deg[from] < k ? 0 : cg.conf(from, to);
  };

  std::vector<std::uint64_t> s_sum(g.vertex_count(), 0);
  std::vector<std::uint64_t> w_assigned(g.vertex_count(), 0);
  std::vector<std::uint32_t> neighbor_mods(g.vertex_count(), 0);
  for (const Vertex v : atom) {
    for (const Vertex w : g.neighbors(v)) {
      if (in_atom[w]) s_sum[v] += wt(v, w);
    }
  }

  std::vector<Vertex> rest;
  for (const Vertex v : atom) {
    if (decided[v]) continue;
    rest.push_back(v);
    for (const Vertex w : g.neighbors(v)) {
      if (module[w] >= 0) {
        w_assigned[v] += in_atom[w] ? wt(w, v) : cg.conf(w, v);
        neighbor_mods[v] |= 1u << static_cast<std::uint32_t>(module[w]);
      }
    }
  }

  const auto k_of = [&](Vertex v) -> std::uint32_t {
    const std::uint32_t used =
        static_cast<std::uint32_t>(std::popcount(neighbor_mods[v]));
    return used >= k ? 0u : static_cast<std::uint32_t>(k) - used;
  };

  struct Entry {
    std::uint64_t w;
    std::uint32_t kk;
    std::uint64_t s;
    Vertex v;
  };
  const auto less_urgent = [](const Entry& a, const Entry& b) {
    const bool a_inf = a.kk == 0, b_inf = b.kk == 0;
    if (a_inf != b_inf) return !a_inf;
    if (!a_inf) {
      const std::uint64_t lhs = a.w * b.kk;
      const std::uint64_t rhs = b.w * a.kk;
      if (lhs != rhs) return lhs < rhs;
    }
    if (a.s != b.s) return a.s < b.s;
    return a.v > b.v;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(less_urgent)> heap(
      less_urgent);
  for (const Vertex v : rest) heap.push({w_assigned[v], k_of(v), s_sum[v], v});

  std::size_t remaining = rest.size();
  while (remaining > 0) {
    const Entry e = heap.top();
    heap.pop();
    const Vertex v = e.v;
    if (decided[v]) continue;
    if (e.w != w_assigned[v] || e.kk != k_of(v)) continue;

    decided[v] = true;
    --remaining;

    std::int32_t chosen = kUnassignedModule;
    if (k_of(v) == 0) {
      const bool keep = !never_remove.empty() && never_remove[v];
      if (!keep) {
        result.unassigned.push_back(v);
      } else {
        std::vector<std::uint64_t> cost(k, 0);
        for (const Vertex w : g.neighbors(v)) {
          if (module[w] >= 0) {
            cost[module[w]] += std::max<std::uint32_t>(cg.conf(v, w), 1u);
          }
        }
        std::uint32_t best = 0;
        for (std::uint32_t m = 1; m < k; ++m) {
          if (cost[m] < cost[best] ||
              (cost[m] == cost[best] && load[m] < load[best])) {
            best = m;
          }
        }
        chosen = static_cast<std::int32_t>(best);
        result.forced.push_back(v);
      }
    } else {
      std::int32_t best = -1;
      for (std::uint32_t m = 0; m < k; ++m) {
        if (neighbor_mods[v] & (1u << m)) continue;
        if (best < 0) {
          best = static_cast<std::int32_t>(m);
        } else if (opts.pick == ModulePick::kLeastLoaded &&
                   load[m] < load[static_cast<std::uint32_t>(best)]) {
          best = static_cast<std::int32_t>(m);
        }
      }
      chosen = best;
    }

    if (chosen >= 0) {
      module[v] = chosen;
      ++load[static_cast<std::uint32_t>(chosen)];
      for (const Vertex w : g.neighbors(v)) {
        if (decided[w] || !in_atom[w]) continue;
        w_assigned[w] += wt(v, w);
        neighbor_mods[w] |= 1u << static_cast<std::uint32_t>(chosen);
        heap.push({w_assigned[w], k_of(w), s_sum[w], w});
      }
    }
  }
}

ColorResult color_conflict_graph(const LegacyConflictGraph& cg,
                                 const ColorOptions& opts,
                                 const std::vector<bool>& never_remove,
                                 std::vector<std::size_t>& load) {
  const std::size_t n = cg.vertex_count();
  ColorResult result;
  result.module.assign(n, kUnassignedModule);
  std::vector<bool> decided(n, false);

  if (opts.use_atoms && n > 0) {
    auto atoms = legacy::decompose_by_clique_separators(cg.g);
    std::reverse(atoms.begin(), atoms.end());
    // The atom-task schedule: separator vertices first, then every atom
    // interior from a whole-graph copy of that frontier, merged in atom
    // order.
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
    color_atom(cg, shared, opts, result.module, decided, never_remove, load,
               result);
    const std::vector<std::int32_t> frontier = result.module;
    const std::vector<bool> frontier_decided = decided;
    const std::vector<std::size_t> frontier_load = load;
    for (const graph::Atom& atom : atoms) {
      std::vector<std::int32_t> module = frontier;
      std::vector<bool> atom_decided = frontier_decided;
      std::vector<std::size_t> atom_load = frontier_load;
      ColorResult local;
      color_atom(cg, atom.vertices, opts, module, atom_decided, never_remove,
                 atom_load, local);
      for (const Vertex v : atom.vertices) {
        if (!frontier_decided[v] && module[v] >= 0) {
          result.module[v] = module[v];
          decided[v] = true;
        }
      }
      for (const Vertex v : local.unassigned) {
        decided[v] = true;
        result.unassigned.push_back(v);
      }
      for (const Vertex v : local.forced) result.forced.push_back(v);
      for (std::size_t m = 0; m < load.size(); ++m) {
        load[m] += atom_load[m] - frontier_load[m];
      }
    }
    result.atoms.reserve(atoms.size());
    for (graph::Atom& atom : atoms) {
      result.atoms.push_back(std::move(atom.vertices));
    }
  } else if (n > 0) {
    std::vector<Vertex> all(n);
    for (Vertex v = 0; v < n; ++v) all[v] = v;
    color_atom(cg, all, opts, result.module, decided, never_remove, load,
               result);
  }
  return result;
}

// ---- seed Fig. 10 placement (std::find scans over all instructions) ----

/// The seed's per-candidate test: is `ops` conflict-free with one extra
/// copy of `extra_v` in `extra_m`?
bool conflict_free_with_extra(const PlacementState& st,
                              const std::vector<ir::ValueId>& ops,
                              ir::ValueId extra_v, std::uint32_t extra_m) {
  if (ops.size() > st.module_count()) return false;
  std::array<ModuleSet, kMaxModules> masks;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    masks[i] = st.placement(ops[i]);
    if (ops[i] == extra_v) masks[i] |= module_bit(extra_m);
    if (masks[i] == 0) return false;
  }
  return support::has_distinct_representatives({masks.data(), ops.size()},
                                               st.module_count());
}

std::size_t place_copies(PlacementState& st,
                         const std::vector<std::vector<ir::ValueId>>& insts,
                         const std::vector<ir::ValueId>& to_place,
                         const std::vector<bool>& in_unassigned,
                         support::SplitMix64& rng) {
  const std::size_t k = st.module_count();

  const auto group_of = [&](const std::vector<ir::ValueId>& ops) {
    std::size_t dup = 0;
    for (const ir::ValueId v : ops) {
      if (v < in_unassigned.size() && in_unassigned[v]) ++dup;
    }
    return std::min(dup, k);
  };

  std::vector<bool> conflicting(insts.size(), false);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    conflicting[i] = !st.combination_conflict_free(insts[i]);
  }

  const auto value_profile = [&](ir::ValueId v) {
    std::vector<std::size_t> profile(k + 1, 0);
    for (std::size_t i = 0; i < insts.size(); ++i) {
      if (!conflicting[i]) continue;
      const auto& ops = insts[i];
      if (std::find(ops.begin(), ops.end(), v) == ops.end()) continue;
      const std::size_t grp = group_of(ops);
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
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (profiles[a] != profiles[b]) {
                         return profiles[a] > profiles[b];
                       }
                       return values[a] < values[b];
                     });
    std::vector<ir::ValueId> sorted;
    sorted.reserve(values.size());
    for (const std::size_t i : idx) sorted.push_back(values[i]);
    values = std::move(sorted);
  }

  std::size_t added = 0;
  for (const ir::ValueId v : values) {
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t m = 0; m < k; ++m) {
      if (!holds(st.placement(v), m)) candidates.push_back(m);
    }
    if (candidates.empty()) continue;

    std::vector<std::vector<std::size_t>> resolved(
        candidates.size(), std::vector<std::size_t>(k + 1, 0));
    for (std::size_t i = 0; i < insts.size(); ++i) {
      if (!conflicting[i]) continue;
      const auto& ops = insts[i];
      if (std::find(ops.begin(), ops.end(), v) == ops.end()) continue;
      const std::size_t grp = group_of(ops);
      if (grp == 0) continue;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (conflict_free_with_extra(st, ops, v, candidates[c])) {
          ++resolved[c][grp];
        }
      }
    }

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
    st.add_copy(v, candidates[pick]);
    ++added;

    for (std::size_t i = 0; i < insts.size(); ++i) {
      if (!conflicting[i]) continue;
      const auto& ops = insts[i];
      if (std::find(ops.begin(), ops.end(), v) == ops.end()) continue;
      if (st.combination_conflict_free(ops)) conflicting[i] = false;
    }
  }
  return added;
}

// ---- seed Fig. 7 hitting-set duplication (std::set everywhere) ----

std::vector<std::vector<ir::ValueId>> combinations_of_size(
    const std::vector<std::vector<ir::ValueId>>& insts, std::size_t num) {
  std::set<std::vector<ir::ValueId>> combos;
  std::vector<ir::ValueId> current;
  for (const auto& ops : insts) {
    if (ops.size() < num) continue;
    current.clear();
    const std::size_t n = ops.size();
    std::vector<std::size_t> idx(num);
    for (std::size_t i = 0; i < num; ++i) idx[i] = i;
    for (;;) {
      current.clear();
      for (const std::size_t i : idx) current.push_back(ops[i]);
      combos.insert(current);
      std::size_t pos = num;
      while (pos > 0 && idx[pos - 1] == n - (num - pos) - 1) --pos;
      if (pos == 0) break;
      ++idx[pos - 1];
      for (std::size_t i = pos; i < num; ++i) idx[i] = idx[i - 1] + 1;
    }
  }
  return {combos.begin(), combos.end()};
}

std::size_t hitting_set_duplicate(
    PlacementState& st, const std::vector<std::vector<ir::ValueId>>& insts,
    const std::vector<bool>& in_unassigned,
    const std::vector<bool>& duplicatable, support::SplitMix64& rng) {
  const std::size_t k = st.module_count();
  std::size_t copies_added = 0;

  std::vector<ir::ValueId> need_first;
  std::vector<ir::ValueId> need_second;
  {
    std::set<ir::ValueId> seen;
    for (const auto& ops : insts) {
      for (const ir::ValueId v : ops) {
        if (v >= in_unassigned.size() || !in_unassigned[v]) continue;
        if (!seen.insert(v).second) continue;
        if (st.copies(v) == 0) need_first.push_back(v);
        if (st.copies(v) <= 1) need_second.push_back(v);
      }
    }
  }

  copies_added += place_copies(st, insts, need_first, in_unassigned, rng);
  copies_added += place_copies(st, insts, need_second, in_unassigned, rng);

  std::size_t max_width = 0;
  for (const auto& ops : insts) max_width = std::max(max_width, ops.size());

  for (std::size_t num = 3; num <= std::min(max_width, k); ++num) {
    const auto combos = combinations_of_size(insts, num);
    for (;;) {
      std::vector<std::vector<std::uint32_t>> cand_sets;
      for (const auto& combo : combos) {
        if (st.combination_conflict_free(combo)) continue;
        std::vector<std::uint32_t> cands;
        for (const ir::ValueId v : combo) {
          const bool dup = v < duplicatable.size() && duplicatable[v];
          if (dup && st.copies(v) >= 2 && st.copies(v) < k) {
            cands.push_back(v);
          }
        }
        if (!cands.empty()) cand_sets.push_back(std::move(cands));
      }
      if (cand_sets.empty()) break;

      const auto hs = greedy_hitting_set(cand_sets);
      std::vector<ir::ValueId> to_place(hs.begin(), hs.end());
      const std::size_t added =
          place_copies(st, insts, to_place, in_unassigned, rng);
      copies_added += added;
      if (added == 0) break;
    }
  }

  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (st.combination_conflict_free(insts[i])) continue;
    const auto added = resolve_instruction(st, insts[i], duplicatable, rng);
    if (added.has_value()) copies_added += *added;
  }
  return copies_added;
}

}  // namespace legacy

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

struct PhaseTimes {
  double build = 0;
  double color = 0;
  double duplicate = 0;
  double total() const { return build + color + duplicate; }
  void take_min(const PhaseTimes& o) {
    build = std::min(build, o.build);
    color = std::min(color, o.color);
    duplicate = std::min(duplicate, o.duplicate);
  }
};

struct RunOutput {
  std::vector<ModuleSet> placement;
  std::vector<bool> removed;
  std::size_t total_copies = 0;
  std::size_t atoms = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
};

constexpr std::uint64_t kSeed = 0x5eed;

/// Shared STOR1 tail: commit the coloring onto a fresh PlacementState, run
/// hitting-set duplication, apply the safety net. Used by both sides so the
/// only difference under timing is the implementation being measured.
template <typename Cg, typename DupFn>
RunOutput finish_stor1(const ir::AccessStream& stream, const Cg& cg,
                       const ColorResult& cr,
                       const std::vector<std::vector<ir::ValueId>>& insts,
                       DupFn dup, PhaseTimes& t) {
  const std::size_t k = 8;
  RunOutput out;
  PlacementState st(stream, k);
  std::vector<bool> removed(stream.value_count, false);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    if (cr.module[v] >= 0) {
      st.add_copy(cg.value_of(v), static_cast<std::uint32_t>(cr.module[v]));
    }
  }
  for (const graph::Vertex v : cr.unassigned) removed[cg.value_of(v)] = true;

  support::SplitMix64 rng(kSeed);
  const auto t0 = Clock::now();
  dup(st, insts, removed, rng);
  for (const auto& ops : insts) {
    for (const ir::ValueId v : ops) {
      if (st.copies(v) == 0) {
        st.add_copy(v, static_cast<std::uint32_t>(rng.below(k)));
      }
    }
  }
  t.duplicate = ms_since(t0);

  out.placement = st.placements();
  out.removed = std::move(removed);
  out.total_copies = st.total_copies();
  out.atoms = cr.atoms.size();
  return out;
}

RunOutput run_legacy(const ir::AccessStream& stream,
                     const std::vector<std::vector<ir::ValueId>>& insts,
                     PhaseTimes& t) {
  auto t0 = Clock::now();
  const auto cg = legacy::build_from_insts(stream.value_count, insts);
  t.build = ms_since(t0);

  ColorOptions co;
  co.module_count = 8;
  std::vector<bool> never_remove(cg.vertex_count(), false);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    never_remove[v] = !stream.duplicatable[cg.value_of(v)];
  }
  std::vector<std::size_t> load(co.module_count, 0);
  t0 = Clock::now();
  const ColorResult cr =
      legacy::color_conflict_graph(cg, co, never_remove, load);
  t.color = ms_since(t0);

  RunOutput out = finish_stor1(
      stream, cg, cr, insts,
      [&](PlacementState& st, const auto& is, const std::vector<bool>& rm,
          support::SplitMix64& rng) {
        legacy::hitting_set_duplicate(st, is, rm, stream.duplicatable, rng);
      },
      t);
  out.vertices = cg.vertex_count();
  out.edges = cg.g.edge_count();
  return out;
}

RunOutput run_csr(const ir::AccessStream& stream,
                  const std::vector<std::vector<ir::ValueId>>& insts,
                  PhaseTimes& t) {
  AssignWorkspace ws;
  auto t0 = Clock::now();
  const auto cg = ConflictGraph::build_from_insts(stream.value_count, insts);
  t.build = ms_since(t0);

  ColorOptions co;
  co.module_count = 8;
  std::vector<bool> never_remove(cg.vertex_count(), false);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    never_remove[v] = !stream.duplicatable[cg.value_of(v)];
  }
  std::vector<std::size_t> load(co.module_count, 0);
  t0 = Clock::now();
  const ColorResult cr =
      color_conflict_graph(cg, co, {}, never_remove, &load, &ws);
  t.color = ms_since(t0);

  RunOutput out = finish_stor1(
      stream, cg, cr, insts,
      [&](PlacementState& st, const auto& is, const std::vector<bool>& rm,
          support::SplitMix64& rng) {
        hitting_set_duplicate(st, is, rm, stream.duplicatable, rng, &ws);
      },
      t);
  out.vertices = cg.vertex_count();
  out.edges = cg.graph().edge_count();
  return out;
}

struct Entry {
  std::string name;
  std::size_t values = 0;
  std::size_t tuples = 0;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t atoms = 0;
  std::size_t total_copies = 0;
  PhaseTimes legacy;
  PhaseTimes csr;
  bool identical = false;
};

// ---- speculative coloring tier: sequential heap vs chunked rounds ----

struct SpecEntry {
  std::string name;
  std::size_t vertices = 0;
  double seq_ms = 0;           // sequential urgency-heap coloring
  double spec_ms = 0;          // speculative chunked rounds
  double speedup = 0;          // seq_ms / spec_ms
  std::uint64_t rounds = 0;
  std::uint64_t chunks = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t repaired = 0;
  std::size_t colors_seq = 0;
  std::size_t colors_spec = 0;
  std::size_t removed_seq = 0;
  std::size_t removed_spec = 0;
  std::size_t copies_seq = 0;
  std::size_t copies_spec = 0;
  bool deterministic = false;  // two speculative runs byte-identical
  bool quality_ok = false;     // <= seq colors + 1, <= seq copies + 5%
};

// One coloring run of the whole graph as a single atom (use_atoms off), so
// the timing isolates the kernel under comparison: the sequential urgency
// heap, or the speculative chunked rounds when `speculate` is set.
ColorResult color_kernel(const ConflictGraph& cg,
                         const ir::AccessStream& stream, bool speculate,
                         double& ms) {
  ColorOptions co;
  co.module_count = 8;
  co.use_atoms = false;
  if (speculate) {
    co.speculate_threshold = 1;
    co.speculate_chunk = 256;
  }
  std::vector<bool> never_remove(cg.vertex_count(), false);
  for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
    never_remove[v] = !stream.duplicatable[cg.value_of(v)];
  }
  std::vector<std::size_t> load(co.module_count, 0);
  AssignWorkspace ws;
  const auto t0 = Clock::now();
  ColorResult cr = color_conflict_graph(cg, co, {}, never_remove, &load, &ws);
  ms = ms_since(t0);
  return cr;
}

std::size_t colors_used(const ColorResult& cr) {
  std::uint32_t mask = 0;
  for (const std::int32_t m : cr.module) {
    if (m >= 0) mask |= 1u << static_cast<std::uint32_t>(m);
  }
  return static_cast<std::size_t>(std::popcount(mask));
}

std::size_t copies_after_duplication(
    const ir::AccessStream& stream, const ConflictGraph& cg,
    const ColorResult& cr, const std::vector<std::vector<ir::ValueId>>& insts) {
  AssignWorkspace ws;
  PhaseTimes unused;
  const RunOutput out = finish_stor1(
      stream, cg, cr, insts,
      [&](PlacementState& st, const auto& is, const std::vector<bool>& rm,
          support::SplitMix64& rng) {
        hitting_set_duplicate(st, is, rm, stream.duplicatable, rng, &ws);
      },
      unused);
  return out.total_copies;
}

SpecEntry bench_speculative(const std::string& name,
                            const ir::AccessStream& stream, int reps) {
  SpecEntry e;
  e.name = name;

  std::vector<std::vector<ir::ValueId>> insts;
  insts.reserve(stream.tuples.size());
  for (const auto& t : stream.tuples) insts.push_back(t.operands);
  const auto cg = ConflictGraph::build_from_insts(stream.value_count, insts);
  e.vertices = cg.vertex_count();

  ColorResult seq_cr, spec_cr;
  for (int r = 0; r < reps; ++r) {
    double seq = 0, spec = 0;
    ColorResult sc = color_kernel(cg, stream, false, seq);
    ColorResult pc = color_kernel(cg, stream, true, spec);
    if (r == 0) {
      e.seq_ms = seq;
      e.spec_ms = spec;
      seq_cr = std::move(sc);
      spec_cr = std::move(pc);
    } else {
      e.seq_ms = std::min(e.seq_ms, seq);
      e.spec_ms = std::min(e.spec_ms, spec);
    }
  }
  double unused_ms = 0;
  const ColorResult again = color_kernel(cg, stream, true, unused_ms);

  e.speedup = e.spec_ms > 0 ? e.seq_ms / e.spec_ms : 0.0;
  e.rounds = spec_cr.speculative.rounds;
  e.chunks = spec_cr.speculative.chunks;
  e.conflicts = spec_cr.speculative.conflicts;
  e.repaired = spec_cr.speculative.repaired;
  e.deterministic = spec_cr.module == again.module &&
                    spec_cr.unassigned == again.unassigned &&
                    spec_cr.forced == again.forced;

  e.colors_seq = colors_used(seq_cr);
  e.colors_spec = colors_used(spec_cr);
  e.removed_seq = seq_cr.unassigned.size();
  e.removed_spec = spec_cr.unassigned.size();
  e.copies_seq = copies_after_duplication(stream, cg, seq_cr, insts);
  e.copies_spec = copies_after_duplication(stream, cg, spec_cr, insts);
  e.quality_ok = e.colors_spec <= e.colors_seq + 1 &&
                 e.copies_spec <= e.copies_seq + (e.copies_seq + 19) / 20;
  return e;
}

Entry bench_stream(const std::string& name, const ir::AccessStream& stream,
                   int reps) {
  Entry e;
  e.name = name;
  e.values = stream.value_count;
  e.tuples = stream.tuples.size();

  std::vector<std::vector<ir::ValueId>> insts;
  insts.reserve(stream.tuples.size());
  for (const auto& t : stream.tuples) insts.push_back(t.operands);

  for (int r = 0; r < reps; ++r) {
    PhaseTimes lt, ct;
    const RunOutput lo = run_legacy(stream, insts, lt);
    const RunOutput co = run_csr(stream, insts, ct);
    if (r == 0) {
      e.legacy = lt;
      e.csr = ct;
      e.vertices = co.vertices;
      e.edges = co.edges;
      e.atoms = co.atoms;
      e.total_copies = co.total_copies;
      e.identical = lo.placement == co.placement &&
                    lo.removed == co.removed &&
                    lo.total_copies == co.total_copies &&
                    lo.vertices == co.vertices && lo.edges == co.edges;
    } else {
      e.legacy.take_min(lt);
      e.csr.take_min(ct);
    }
  }
  return e;
}

void write_json(const std::string& path, const std::vector<Entry>& entries,
                const std::vector<SpecEntry>& spec, bool quick) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  support::JsonWriter w;
  const auto phase_times = [&](const char* k, const PhaseTimes& t) {
    w.key(k);
    w.begin_object();
    w.member_fixed("build", t.build, 3);
    w.member_fixed("color", t.color, 3);
    w.member_fixed("duplicate", t.duplicate, 3);
    w.member_fixed("total", t.total(), 3);
    w.end_object();
  };
  w.begin_object();
  w.member("bench", "assign_hotpath");
  w.member("quick", quick);
  w.member("nproc", std::thread::hardware_concurrency());
  w.member("module_count", 8);
  w.key("entries");
  w.begin_array();
  for (const Entry& e : entries) {
    w.begin_object();
    w.member("stream", e.name);
    w.member("values", e.values);
    w.member("tuples", e.tuples);
    w.member("vertices", e.vertices);
    w.member("edges", e.edges);
    w.member("atoms", e.atoms);
    w.member("total_copies", e.total_copies);
    phase_times("legacy_ms", e.legacy);
    phase_times("csr_ms", e.csr);
    w.key("speedup");
    w.begin_object();
    w.member_fixed("build", ratio(e.legacy.build, e.csr.build), 2);
    w.member_fixed("color", ratio(e.legacy.color, e.csr.color), 2);
    w.member_fixed("duplicate", ratio(e.legacy.duplicate, e.csr.duplicate), 2);
    w.member_fixed("color_plus_duplicate",
                   ratio(e.legacy.color + e.legacy.duplicate,
                         e.csr.color + e.csr.duplicate),
                   2);
    w.member_fixed("total", ratio(e.legacy.total(), e.csr.total()), 2);
    w.end_object();
    w.member("identical", e.identical);
    w.end_object();
  }
  w.end_array();
  // Speculative tier: sequential-heap vs chunked-round coloring on the
  // same graph (single atom, threshold 1, chunk 256), with the quality
  // differential against the sequential result.
  w.key("speculative");
  w.begin_array();
  for (const SpecEntry& s : spec) {
    w.begin_object();
    w.member("stream", s.name);
    w.member("vertices", s.vertices);
    w.member_fixed("seq_color_ms", s.seq_ms, 3);
    w.member_fixed("spec_color_ms", s.spec_ms, 3);
    w.member_fixed("speedup", s.speedup, 2);
    w.member("rounds", s.rounds);
    w.member("chunks", s.chunks);
    w.member("conflicts_detected", s.conflicts);
    w.member("conflicts_repaired", s.repaired);
    w.member("colors_seq", s.colors_seq);
    w.member("colors_spec", s.colors_spec);
    w.member("removed_seq", s.removed_seq);
    w.member("removed_spec", s.removed_spec);
    w.member("copies_seq", s.copies_seq);
    w.member("copies_spec", s.copies_spec);
    w.member("deterministic", s.deterministic);
    w.member("quality_ok", s.quality_ok);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  bench::write_report(path, w);
}

}  // namespace
}  // namespace parmem::assign

int main(int argc, char** argv) {
  using namespace parmem;

  bool quick = false;
  std::string out_path = "BENCH_assign.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  std::vector<std::pair<std::string, ir::AccessStream>> streams;
  for (const auto& w : workloads::all_workloads()) {
    analysis::PipelineOptions o;
    o.sched.fu_count = 8;
    o.sched.module_count = 8;
    o.assign.module_count = 8;
    o.rename = true;
    streams.emplace_back(w.name, analysis::compile_mc(w.source, o).stream);
  }
  {
    support::SplitMix64 rng(0xabc1);
    workloads::StreamGenOptions g;
    g.value_count = 256;
    g.tuple_count = 800;
    g.min_width = 2;
    g.max_width = 4;
    g.locality_window = 16;
    g.region_count = 4;
    streams.emplace_back("syn_small", workloads::random_stream(g, rng));
  }
  if (!quick) {
    {
      support::SplitMix64 rng(0xabc2);
      workloads::StreamGenOptions g;
      g.value_count = 1024;
      g.tuple_count = 4000;
      g.min_width = 2;
      g.max_width = 4;
      g.locality_window = 24;
      g.region_count = 6;
      streams.emplace_back("syn_mid", workloads::random_stream(g, rng));
    }
    {
      support::SplitMix64 rng(0xabc3);
      workloads::StreamGenOptions g;
      g.value_count = 4096;
      g.tuple_count = 20000;
      g.min_width = 2;
      g.max_width = 4;
      g.locality_window = 24;
      g.region_count = 8;
      streams.emplace_back("syn_large", workloads::random_stream(g, rng));
    }
  }

  const int reps = quick ? 1 : 3;
  std::vector<assign::Entry> entries;
  bool all_identical = true;
  for (const auto& [name, stream] : streams) {
    assign::Entry e = assign::bench_stream(name, stream, reps);
    std::printf(
        "%-10s V=%-5zu E=%-6zu  legacy %8.2f ms  csr %8.2f ms  "
        "speedup %5.2fx  %s\n",
        e.name.c_str(), e.vertices, e.edges, e.legacy.total(), e.csr.total(),
        e.csr.total() > 0 ? e.legacy.total() / e.csr.total() : 0.0,
        e.identical ? "identical" : "MISMATCH");
    all_identical = all_identical && e.identical;
    entries.push_back(std::move(e));
  }

  std::vector<assign::SpecEntry> spec;
  bool spec_deterministic = true;
  for (const auto& [name, stream] : streams) {
    assign::SpecEntry s = assign::bench_speculative(name, stream, reps);
    std::printf(
        "%-10s V=%-5zu  seq %8.2f ms  spec %8.2f ms  speedup %5.2fx  "
        "rounds=%llu conflicts=%llu  colors %zu->%zu removed %zu->%zu "
        "copies %zu->%zu  %s%s\n",
        s.name.c_str(), s.vertices, s.seq_ms, s.spec_ms, s.speedup,
        static_cast<unsigned long long>(s.rounds),
        static_cast<unsigned long long>(s.conflicts), s.colors_seq,
        s.colors_spec, s.removed_seq, s.removed_spec, s.copies_seq,
        s.copies_spec,
        s.deterministic ? "deterministic" : "NONDETERMINISTIC",
        s.quality_ok ? "" : " QUALITY-REGRESSION");
    spec_deterministic = spec_deterministic && s.deterministic;
    spec.push_back(std::move(s));
  }

  assign::write_json(out_path, entries, spec, quick);
  std::printf("report written to %s\n", out_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: legacy and CSR paths diverged\n");
    return 1;
  }
  if (!spec_deterministic) {
    std::fprintf(stderr,
                 "FAIL: speculative coloring diverged between two runs\n");
    return 1;
  }
  return 0;
}
