#include "graph/atoms.h"

#include <algorithm>

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

  // Adjacency of H = G + F, as sorted neighbor lists: gather the fill
  // edges per vertex, then one sorted merge per row (tri.fill is sorted, so
  // per-vertex fill lists come out sorted) instead of per-edge insertion.
  std::vector<std::vector<Vertex>> h_adj(n);
  std::vector<std::vector<Vertex>> fill_of(n);
  for (const auto& [u, v] : tri.fill) {
    fill_of[u].push_back(v);
    fill_of[v].push_back(u);
  }
  for (Vertex v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    std::sort(fill_of[v].begin(), fill_of[v].end());
    h_adj[v].resize(nb.size() + fill_of[v].size());
    std::merge(nb.begin(), nb.end(), fill_of[v].begin(), fill_of[v].end(),
               h_adj[v].begin());
  }

  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[tri.order[i]] = i;

  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;

  // Scratch reused across candidate splits (each split used to allocate
  // its own O(n) masks — O(atoms × V) churn on atom-rich graphs).
  std::vector<Vertex> sep;
  std::vector<bool> mask;
  std::vector<bool> in_comp(n, false);
  std::vector<bool> in_sep(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    const Vertex x = tri.order[i];
    if (!alive[x]) continue;  // already split off inside some component

    // S = later neighbors of x in H that are still alive.
    sep.clear();
    for (const Vertex w : h_adj[x]) {
      if (pos[w] > i && alive[w]) sep.push_back(w);
    }
    if (sep.empty()) continue;              // x isolated in the remainder
    if (!g.is_clique(sep)) continue;        // not a clique separator of G

    // Component of x with S removed.
    mask = alive;
    for (const Vertex s : sep) mask[s] = false;
    std::vector<Vertex> comp = g.component_of(x, mask);

    // S must actually separate: the component plus S must not be everything
    // still alive (otherwise this split would swallow the whole remainder).
    if (comp.size() + sep.size() >= alive_count) continue;

    // S must be a *minimal* separator between C and the rest: every
    // separator vertex needs a neighbor on both sides. Splitting on a
    // non-minimal clique separator would emit non-maximal atoms (e.g. a
    // sub-clique of a maximal clique in a chordal graph).
    for (const Vertex c : comp) in_comp[c] = true;
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
    for (const Vertex c : comp) in_comp[c] = false;
    for (const Vertex s : sep) in_sep[s] = false;
    if (!minimal) continue;

    Atom atom;
    atom.vertices = comp;
    atom.vertices.insert(atom.vertices.end(), sep.begin(), sep.end());
    std::sort(atom.vertices.begin(), atom.vertices.end());
    atom.separator = sep;  // already sorted (h_adj is sorted)
    atoms.push_back(std::move(atom));

    for (const Vertex c : comp) {
      alive[c] = false;
      --alive_count;
    }
  }

  // Whatever remains forms the final atoms — one per connected component of
  // the remainder, each with an empty separator.
  std::vector<bool> emitted(n, false);
  for (Vertex v = 0; v < n; ++v) {
    if (!alive[v] || emitted[v]) continue;
    Atom last;
    last.vertices = g.component_of(v, alive);
    for (const Vertex u : last.vertices) emitted[u] = true;
    atoms.push_back(std::move(last));
  }
  PARMEM_CHECK(!atoms.empty(), "decomposition must produce at least one atom");
  return atoms;
}

}  // namespace parmem::graph
