// The clique-separator split against a plain reference.
// `reference_decompose` is the all-vertex scan: it tests every vertex x in
// elimination order, taking S = x's later neighbours in H = G + F that are
// still in the working graph, and splits when S is a clique of G that
// separates x's component minimally. `decompose_by_clique_separators`
// tests only MCS-M's generators (Berry, Pogorelcnik & Simonet 2010), so
// the atoms, their separators and their order must match exactly on a
// seeded corpus of conflict graphs of random and block-structured streams,
// chordal graphs and disconnected unions of them.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/conflict_graph.h"
#include "graph/atoms.h"
#include "graph/mcsm.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"

namespace parmem::graph {
namespace {

// H's rows restricted to later neighbours, each ascending.
std::vector<std::vector<Vertex>> later_rows(const Graph& g,
                                            const Triangulation& tri) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[tri.order[i]] = i;
  std::vector<std::vector<Vertex>> rows(n);
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (pos[w] > pos[v]) rows[v].push_back(w);
    }
  }
  for (const auto& [u, v] : tri.fill) {
    if (pos[u] < pos[v]) rows[u].push_back(v);
    else rows[v].push_back(u);
  }
  for (auto& row : rows) std::sort(row.begin(), row.end());
  return rows;
}

std::vector<Atom> reference_decompose(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<Atom> atoms;
  if (n == 0) return atoms;
  const Triangulation tri = mcs_m(g);
  const auto rows = later_rows(g, tri);

  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;
  // The alive vertices reachable from `start` avoiding `blocked`.
  const auto component = [&](Vertex start, const std::vector<bool>& blocked) {
    std::vector<bool> seen(n, false);
    std::vector<Vertex> comp{start}, stack{start};
    seen[start] = true;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const Vertex w : g.neighbors(v)) {
        if (!alive[w] || blocked[w] || seen[w]) continue;
        seen[w] = true;
        comp.push_back(w);
        stack.push_back(w);
      }
    }
    return comp;
  };

  for (const Vertex x : tri.order) {
    if (!alive[x]) continue;
    std::vector<Vertex> sep;
    for (const Vertex w : rows[x]) {
      if (alive[w]) sep.push_back(w);
    }
    if (sep.empty() || !g.is_clique(sep)) continue;
    std::vector<bool> in_sep(n, false);
    for (const Vertex s : sep) in_sep[s] = true;
    const std::vector<Vertex> comp = component(x, in_sep);
    std::vector<bool> in_comp(n, false);
    for (const Vertex c : comp) in_comp[c] = true;
    bool minimal = comp.size() + sep.size() < alive_count;
    for (const Vertex s : sep) {
      bool to_comp = false, to_rest = false;
      for (const Vertex w : g.neighbors(s)) {
        if (!alive[w]) continue;
        if (in_comp[w]) to_comp = true;
        else if (!in_sep[w]) to_rest = true;
      }
      minimal = minimal && to_comp && to_rest;
    }
    if (!minimal) continue;
    Atom atom;
    atom.vertices = comp;
    atom.vertices.insert(atom.vertices.end(), sep.begin(), sep.end());
    std::sort(atom.vertices.begin(), atom.vertices.end());
    atom.separator = sep;
    atoms.push_back(std::move(atom));
    for (const Vertex c : comp) alive[c] = false;
    alive_count -= comp.size();
  }

  const std::vector<bool> none(n, false);
  for (Vertex v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    Atom last;
    last.vertices = component(v, none);
    for (const Vertex c : last.vertices) alive[c] = false;
    std::sort(last.vertices.begin(), last.vertices.end());
    atoms.push_back(std::move(last));
  }
  return atoms;
}

std::vector<std::pair<Vertex, Vertex>> edges_of(const Graph& g,
                                                Vertex shift = 0) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (v < w) edges.emplace_back(v + shift, w + shift);
    }
  }
  return edges;
}

Graph conflict_graph(const ir::AccessStream& stream) {
  const auto cg = assign::ConflictGraph::build(stream);
  return Graph::from_edges(cg.vertex_count(), edges_of(cg.graph()));
}

// A random stream of 20-200 values with widths 2..2-7, in a sliding
// window of 4-24 values or (`local` false) drawn over the whole space.
Graph random_stream_graph(bool local, support::SplitMix64& rng) {
  workloads::StreamGenOptions o;
  o.value_count = 20 + rng.below(181);
  o.tuple_count = o.value_count * (1 + rng.below(3)) / 2 + 1;
  o.min_width = 2;
  o.max_width = 2 + rng.below(6);
  o.region_count = 1 + rng.below(4);
  o.locality_window = local ? 4 + rng.below(21) : 0;
  return conflict_graph(workloads::random_stream(o, rng));
}

Graph modular_stream_graph(support::SplitMix64& rng) {
  workloads::ModularStreamOptions o;
  o.block_count = 2 + rng.below(6);
  o.values_per_block = 8 + rng.below(41);
  o.tuples_per_block = o.values_per_block * (1 + rng.below(3));
  o.max_width = 2 + rng.below(4);
  o.locality_window = 4 + rng.below(12);
  o.bridge_tuples = 1 + rng.below(4);
  return conflict_graph(workloads::modular_stream(o, rng));
}

// A chordal graph: vertex v > 0 joins a clique of earlier vertices, an
// earlier vertex u plus part of the clique u joined, so the reverse of the
// numbering eliminates it without fill.
Graph chordal_graph(support::SplitMix64& rng) {
  const std::size_t n = 10 + rng.below(150);
  std::vector<std::vector<Vertex>> joined(n);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v < n; ++v) {
    const auto u = static_cast<Vertex>(rng.below(v));
    joined[v].push_back(u);
    for (const Vertex w : joined[u]) {
      if (rng.below(3) != 0) joined[v].push_back(w);
    }
    for (const Vertex w : joined[v]) edges.emplace_back(w, v);
  }
  return Graph::from_edges(n, edges);
}

// Two to four of the shapes above side by side, plus isolated vertices.
Graph disconnected_graph(support::SplitMix64& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  Vertex n = 0;
  for (std::size_t part = 2 + rng.below(3); part > 0; --part) {
    Graph g = rng.below(2) == 0 ? chordal_graph(rng)
                                : random_stream_graph(true, rng);
    const auto more = edges_of(g, n);
    edges.insert(edges.end(), more.begin(), more.end());
    n += static_cast<Vertex>(g.vertex_count() + rng.below(3));
  }
  return Graph::from_edges(n, edges);
}

// Graph i of the corpus, by i % 6.
Graph corpus_graph(std::size_t i, support::SplitMix64& rng) {
  switch (i % 6) {
    case 0:
    case 1:
      return random_stream_graph(true, rng);
    case 2:
      return random_stream_graph(false, rng);
    case 3:
      return modular_stream_graph(rng);
    case 4:
      return chordal_graph(rng);
    default:
      return disconnected_graph(rng);
  }
}

void expect_same_atoms(const std::vector<Atom>& got,
                       const std::vector<Atom>& want, std::size_t i) {
  ASSERT_EQ(got.size(), want.size()) << "graph " << i;
  for (std::size_t a = 0; a < got.size(); ++a) {
    EXPECT_EQ(got[a].vertices, want[a].vertices) << "graph " << i << " atom " << a;
    EXPECT_EQ(got[a].separator, want[a].separator)
        << "graph " << i << " atom " << a;
  }
}

constexpr std::size_t kCorpusGraphs = 3000;

TEST(AtomsReference, GeneratorSplitMatchesAllVertexScan) {
  support::SplitMix64 rng(0xa70e5);
  std::size_t split = 0;
  for (std::size_t i = 0; i < kCorpusGraphs; ++i) {
    const Graph g = corpus_graph(i, rng);
    const auto got = decompose_by_clique_separators(g);
    expect_same_atoms(got, reference_decompose(g), i);
    if (got.size() > 1) ++split;
  }
  // The corpus must exercise the split, not only single-atom graphs.
  EXPECT_GT(split, kCorpusGraphs / 2);
}

// A generator's weight when picked is its count of later H-neighbours, so
// the flags follow from the rows: order[i] is a generator iff its row is
// no longer than order[i + 1]'s, and the last vertex never is.
TEST(AtomsReference, GeneratorFlagsMatchLaterRowLengths) {
  support::SplitMix64 rng(0x9e7);
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    const Graph g = corpus_graph(i, rng);
    const Triangulation tri = mcs_m(g);
    const auto rows = later_rows(g, tri);
    const std::size_t n = g.vertex_count();
    ASSERT_EQ(tri.generator.size(), n) << "graph " << i;
    for (std::size_t p = 0; p < n; ++p) {
      const bool want = p + 1 < n && rows[tri.order[p]].size() <=
                                         rows[tri.order[p + 1]].size();
      EXPECT_EQ(tri.generator[p] != 0, want) << "graph " << i << " pos " << p;
      skipped += !want;
    }
  }
  EXPECT_GT(skipped, 0u);
}

}  // namespace
}  // namespace parmem::graph
