#include "graph/atoms.h"

#include <algorithm>
#include <cstdint>

#include "graph/mcsm.h"
#include "support/diagnostics.h"
#include "telemetry/telemetry.h"

namespace parmem::graph {

std::vector<Atom> decompose_by_clique_separators(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<Atom> atoms;
  if (n == 0) return atoms;

  const Triangulation tri = mcs_m(g);
  PARMEM_COUNTER_ADD("graph.mcsm.search_edges", tri.search_edges);
  PARMEM_COUNTER_ADD("graph.mcsm.mask_steps", tri.mask_steps);

  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[tri.order[i]] = i;
  const auto later = [&](Vertex a, Vertex b) { return pos[a] > pos[b]; };

  // Each vertex's later fill neighbours as one CSR row: two counting
  // passes over tri.fill (a per-row count, then a placement that keeps
  // rows ascending, because tri.fill is sorted and each row receives its
  // smaller neighbours first). A candidate's later neighbourhood in
  // H = G + F is then the merge of the later part of its G row with its
  // fill row, built only for the generators that are tested.
  std::vector<std::uint32_t> fill_off(n + 1, 0);
  for (const auto& [u, v] : tri.fill) ++fill_off[(later(v, u) ? u : v) + 1];
  for (std::size_t v = 0; v < n; ++v) fill_off[v + 1] += fill_off[v];
  std::vector<Vertex> fill_nbr(tri.fill.size());
  {
    std::vector<std::uint32_t> cursor(fill_off.begin(), fill_off.end() - 1);
    for (const auto& [u, v] : tri.fill) {
      if (later(u, v)) fill_nbr[cursor[v]++] = u;
    }
    for (const auto& [u, v] : tri.fill) {
      if (later(v, u)) fill_nbr[cursor[u]++] = v;
    }
  }

  // Per-vertex marks, reused by every candidate split: S is taken out of
  // `alive` in place for the flood and put back after it, so no candidate
  // copies an O(n) mask.
  std::vector<std::uint8_t> alive(n, 1);
  std::vector<std::uint8_t> in_comp(n, 0);
  std::vector<std::uint8_t> in_sep(n, 0);
  std::size_t alive_count = n;
  std::vector<Vertex> sep;
  std::vector<Vertex> comp;
  std::vector<Vertex> stack;

  // comp = the alive vertices reachable from `start` that are not yet
  // in_comp, each marked in_comp (in flood order, unsorted).
  const auto flood = [&](Vertex start) {
    comp.clear();
    stack.assign(1, start);
    in_comp[start] = 1;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      comp.push_back(v);
      for (const Vertex w : g.neighbors(v)) {
        if (alive[w] && !in_comp[w]) {
          in_comp[w] = 1;
          stack.push_back(w);
        }
      }
    }
  };

  // S lies in x's later neighbourhood in H, a clique of H because MCS-M's
  // order is a perfect elimination ordering of H. So S is a clique of G
  // exactly when no fill edge joins two of its vertices, and each such
  // edge sits in the fill row of its earlier end: with S marked in_sep,
  // one scan of S's fill rows replaces |S|^2 edge lookups in G.
  const auto fill_inside_sep = [&] {
    for (const Vertex s : sep) {
      for (std::uint32_t e = fill_off[s]; e < fill_off[s + 1]; ++e) {
        if (in_sep[fill_nbr[e]]) return true;
      }
    }
    return false;
  };

  // Whether S (marked in_sep) splits x's component C off the remainder;
  // leaves C in comp.
  const auto separates = [&](Vertex x) {
    // C is x's component with S removed.
    for (const Vertex s : sep) alive[s] = 0;
    flood(x);
    for (const Vertex s : sep) alive[s] = 1;

    // S must actually separate: C plus S must not be everything still
    // alive (otherwise this split would swallow the whole remainder). S
    // must also be a *minimal* separator between C and the rest: every
    // separator vertex needs a neighbor on both sides. Splitting on a
    // non-minimal clique separator would emit non-maximal atoms (e.g. a
    // sub-clique of a maximal clique in a chordal graph).
    bool minimal = comp.size() + sep.size() < alive_count;
    for (std::size_t j = 0; minimal && j < sep.size(); ++j) {
      bool to_comp = false, to_rest = false;
      for (const Vertex w : g.neighbors(sep[j])) {
        if (!alive[w]) continue;
        if (in_comp[w]) to_comp = true;
        else if (!in_sep[w]) to_rest = true;
      }
      minimal = to_comp && to_rest;
    }
    for (const Vertex c : comp) in_comp[c] = 0;
    return minimal;
  };

  // Only a generator's later neighbourhood can be a minimal separator of
  // H, and a clique minimal separator of G is one of those (Berry,
  // Pogorelcnik & Simonet 2010), so every other x is skipped untested.
  [[maybe_unused]] std::uint64_t separator_tests = 0;  // floods run
  for (std::size_t i = 0; i < n; ++i) {
    const Vertex x = tri.order[i];
    if (!tri.generator[i]) continue;
    if (!alive[x]) continue;  // already split off inside some component

    // S = later neighbors of x in H that are still alive, ascending: the
    // merge of x's G row (later part) with its fill row.
    sep.clear();
    const Vertex* f = fill_nbr.data() + fill_off[x];
    const Vertex* const f_end = fill_nbr.data() + fill_off[x + 1];
    const auto take = [&](Vertex w) {
      if (alive[w]) sep.push_back(w);
    };
    for (const Vertex w : g.neighbors(x)) {
      if (!later(w, x)) continue;
      while (f != f_end && *f < w) take(*f++);
      take(w);
    }
    while (f != f_end) take(*f++);
    if (sep.empty()) continue;  // x isolated in the remainder

    for (const Vertex s : sep) in_sep[s] = 1;
    const bool clique = !fill_inside_sep();
    separator_tests += clique;
    const bool split = clique && separates(x);
    for (const Vertex s : sep) in_sep[s] = 0;
    if (!split) continue;

    Atom atom;
    atom.vertices = comp;
    atom.vertices.insert(atom.vertices.end(), sep.begin(), sep.end());
    std::sort(atom.vertices.begin(), atom.vertices.end());
    atom.separator = sep;
    atoms.push_back(std::move(atom));

    for (const Vertex c : comp) alive[c] = 0;
    alive_count -= comp.size();
  }
  PARMEM_COUNTER_ADD("graph.atoms.separator_tests", separator_tests);

  // Whatever remains forms the final atoms — one per connected component of
  // the remainder, each with an empty separator. A flood leaves its
  // component marked in_comp, so each is emitted once.
  for (Vertex v = 0; v < n; ++v) {
    if (!alive[v] || in_comp[v]) continue;
    flood(v);
    Atom last;
    last.vertices = comp;
    std::sort(last.vertices.begin(), last.vertices.end());
    atoms.push_back(std::move(last));
  }
  PARMEM_CHECK(!atoms.empty(), "decomposition must produce at least one atom");
  return atoms;
}

}  // namespace parmem::graph
