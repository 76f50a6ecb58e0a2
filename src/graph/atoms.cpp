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

  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[tri.order[i]] = i;
  const auto later = [&](Vertex a, Vertex b) { return pos[a] > pos[b]; };

  // H = G + F as one CSR, each row holding only the vertex's later
  // neighbours in H: the scan draws S from nothing else. The fill rows
  // take two counting passes over tri.fill (a per-row count, then a
  // placement that keeps rows ascending, because tri.fill is sorted and
  // each row receives its smaller neighbours first), and each H row is
  // then the merge of the later part of the G row with the fill row.
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
  std::vector<std::uint32_t> h_off(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    std::uint32_t deg = fill_off[v + 1] - fill_off[v];
    for (const Vertex w : g.neighbors(v)) deg += later(w, v);
    h_off[v + 1] = h_off[v] + deg;
  }
  std::vector<Vertex> h_nbr(h_off[n]);
  for (Vertex v = 0; v < n; ++v) {
    Vertex* out = h_nbr.data() + h_off[v];
    const Vertex* f = fill_nbr.data() + fill_off[v];
    const Vertex* const f_end = fill_nbr.data() + fill_off[v + 1];
    for (const Vertex w : g.neighbors(v)) {
      if (!later(w, v)) continue;
      while (f != f_end && *f < w) *out++ = *f++;
      *out++ = w;
    }
    while (f != f_end) *out++ = *f++;
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

  for (std::size_t i = 0; i < n; ++i) {
    const Vertex x = tri.order[i];
    if (!alive[x]) continue;  // already split off inside some component

    // S = later neighbors of x in H that are still alive (sorted, as the
    // H rows are).
    sep.clear();
    for (std::uint32_t e = h_off[x]; e < h_off[x + 1]; ++e) {
      if (alive[h_nbr[e]]) sep.push_back(h_nbr[e]);
    }
    if (sep.empty()) continue;  // x isolated in the remainder

    for (const Vertex s : sep) in_sep[s] = 1;
    const bool split = !fill_inside_sep() && separates(x);
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
