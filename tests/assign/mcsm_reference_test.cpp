// MCS-M against a plain reference. `reference_mcs_m` is the textbook
// algorithm with nothing contracted: every step numbers the unnumbered
// vertex of maximum weight (lowest id on ties), runs one minimax-path
// search from it over all unnumbered vertices with a binary heap, and
// raises every y whose best path has all intermediate weights below w(y).
// `mcs_m` contracts the untouched region into component nodes and repairs
// them as they split, so these graphs are chosen to split often: paths,
// ladders, grids, chains of cliques and block-structured streams, each
// also under a random relabelling. Once labelled, `mcs_m` also runs each
// search as a closure over 64-bit masks while the touched vertices and the
// components next to them fit in 64 slots, and falls back to the scored
// search when they outgrow them; MaskModeExits covers both sides of that
// switch. Order and fill must match exactly.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/conflict_graph.h"
#include "graph/mcsm.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"

namespace parmem::graph {
namespace {

Triangulation reference_mcs_m(const Graph& g) {
  const std::size_t n = g.vertex_count();
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> weight(n, 0);
  std::vector<bool> numbered(n, false);
  std::vector<int> best(n);
  Triangulation t;
  t.order.assign(n, 0);
  for (std::size_t step = n; step > 0; --step) {
    Vertex x = 0;
    while (numbered[x]) ++x;
    for (Vertex v = x + 1; v < n; ++v) {
      if (!numbered[v] && weight[v] > weight[x]) x = v;
    }
    numbered[x] = true;
    // best[y]: the least, over paths x .. y through unnumbered vertices, of
    // the largest intermediate weight (-1 for an edge).
    std::fill(best.begin(), best.end(), kUnreached);
    using Entry = std::pair<int, Vertex>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (const Vertex y : g.neighbors(x)) {
      if (numbered[y]) continue;
      best[y] = -1;
      heap.emplace(-1, y);
    }
    while (!heap.empty()) {
      const auto [b, v] = heap.top();
      heap.pop();
      if (b != best[v]) continue;
      const int via = std::max(b, weight[v]);
      for (const Vertex w : g.neighbors(v)) {
        if (numbered[w] || via >= best[w]) continue;
        best[w] = via;
        heap.emplace(via, w);
      }
    }
    std::vector<Vertex> reached;
    for (Vertex y = 0; y < n; ++y) {
      if (!numbered[y] && best[y] < weight[y]) reached.push_back(y);
    }
    for (const Vertex y : reached) {
      ++weight[y];
      if (!g.has_edge(x, y)) {
        t.fill.emplace_back(std::min(x, y), std::max(x, y));
      }
    }
    t.order[step - 1] = x;
  }
  std::sort(t.fill.begin(), t.fill.end());
  return t;
}

Graph from_edges(std::size_t n,
                 const std::vector<std::pair<Vertex, Vertex>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

// An r x c grid with each square's diagonal added with probability p;
// r = 1 is a path and r = 2 a ladder.
Graph grid(std::size_t r, std::size_t c, double p, support::SplitMix64& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  const auto at = [c](std::size_t i, std::size_t j) {
    return static_cast<Vertex>(i * c + j);
  };
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (j + 1 < c) edges.emplace_back(at(i, j), at(i, j + 1));
      if (i + 1 < r) edges.emplace_back(at(i, j), at(i + 1, j));
      if (i + 1 < r && j + 1 < c && rng.uniform() < p) {
        edges.emplace_back(at(i, j), at(i + 1, j + 1));
      }
    }
  }
  return from_edges(r * c, edges);
}

// `count` cliques of 2..`size` vertices in a row, each joined to the next
// by one to three random edges.
Graph clique_chain(std::size_t count, std::size_t size,
                   support::SplitMix64& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::size_t lo = 0, prev_lo = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t k = 2 + rng.below(size - 1);
    for (std::size_t i = lo; i < lo + k; ++i) {
      for (std::size_t j = i + 1; j < lo + k; ++j) {
        edges.emplace_back(static_cast<Vertex>(i), static_cast<Vertex>(j));
      }
    }
    if (b > 0) {
      for (std::size_t e = 1 + rng.below(3); e > 0; --e) {
        const std::size_t u = prev_lo + rng.below(lo - prev_lo);
        edges.emplace_back(static_cast<Vertex>(u),
                           static_cast<Vertex>(lo + rng.below(k)));
      }
    }
    prev_lo = lo;
    lo += k;
  }
  return from_edges(lo, edges);
}

// The conflict graph of a small block-structured stream.
Graph block_stream(support::SplitMix64& rng) {
  workloads::ModularStreamOptions o;
  o.block_count = 2 + rng.below(5);
  o.values_per_block = 16 + rng.below(49);
  o.tuples_per_block = o.values_per_block * (2 + rng.below(4));
  o.locality_window = 4 + rng.below(12);
  o.bridge_tuples = 1 + rng.below(4);
  const auto cg =
      assign::ConflictGraph::build(workloads::modular_stream(o, rng));
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < cg.vertex_count(); ++v) {
    for (const Vertex w : cg.graph().neighbors(v)) {
      if (v < w) edges.emplace_back(v, w);
    }
  }
  return from_edges(cg.vertex_count(), edges);
}

Graph relabelled(const Graph& g, support::SplitMix64& rng) {
  const std::size_t n = g.vertex_count();
  std::vector<Vertex> to(n);
  for (Vertex v = 0; v < n; ++v) to[v] = v;
  for (std::size_t i = n; i > 1; --i) std::swap(to[i - 1], to[rng.below(i)]);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (v < w) edges.emplace_back(to[v], to[w]);
    }
  }
  return from_edges(n, edges);
}

// Graph i of the corpus: path, ladder, grid, clique chain or block stream
// by i % 5.
Graph split_heavy_graph(std::size_t i, support::SplitMix64& rng) {
  switch (i % 5) {
    case 0:
      return grid(1, 20 + rng.below(300), 0.0, rng);
    case 1:
      return grid(2, 10 + rng.below(150), 0.5 * rng.uniform(), rng);
    case 2:
      return grid(3 + rng.below(10), 3 + rng.below(25), 0.5 * rng.uniform(),
                  rng);
    case 3:
      return clique_chain(5 + rng.below(40), 3 + rng.below(8), rng);
    default:
      return block_stream(rng);
  }
}

Triangulation expect_same(const Graph& g, const char* what, std::size_t i) {
  Triangulation got = mcs_m(g);
  const Triangulation want = reference_mcs_m(g);
  EXPECT_EQ(got.order, want.order) << what << " graph " << i;
  EXPECT_EQ(got.fill, want.fill) << what << " graph " << i;
  return got;
}

TEST(McsmReference, SplitHeavyGraphs) {
  support::SplitMix64 rng(0x5b1);
  for (std::size_t i = 0; i < 200; ++i) {
    const Graph g = split_heavy_graph(i, rng);
    expect_same(g, "plain", i);
    expect_same(relabelled(g, rng), "relabelled", i);
  }
}

// The conflict graph of a random stream whose locality window (80-127
// values) is wider than 64: its touched front outgrows the 64 mask slots
// after labelling, so mcs_m finishes on the search over scores.
Graph wide_stream(support::SplitMix64& rng) {
  workloads::StreamGenOptions o;
  o.value_count = 160 + rng.below(160);
  o.tuple_count = o.value_count * (2 + rng.below(2));
  o.locality_window = 80 + rng.below(48);
  const auto cg =
      assign::ConflictGraph::build(workloads::random_stream(o, rng));
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < cg.vertex_count(); ++v) {
    for (const Vertex w : cg.graph().neighbors(v)) {
      if (v < w) edges.emplace_back(v, w);
    }
  }
  return from_edges(cg.vertex_count(), edges);
}

// A broom: a path 0 .. len - 1 whose last vertex is a hub with `arms`
// arms, each arm a vertex carrying two tails of 1-4 vertices. MCS-M walks
// the path from vertex 0 with few touched vertices; numbering the hub
// touches every arm and cuts the untouched tails into 2 * arms components
// next to them, more than 64 mask slots.
Graph broom(std::size_t len, std::size_t arms, support::SplitMix64& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i + 1 < len; ++i) {
    edges.emplace_back(static_cast<Vertex>(i), static_cast<Vertex>(i + 1));
  }
  const auto hub = static_cast<Vertex>(len - 1);
  auto next = static_cast<Vertex>(len);
  for (std::size_t a = 0; a < arms; ++a) {
    const Vertex arm = next++;
    edges.emplace_back(hub, arm);
    for (int t = 0; t < 2; ++t) {
      Vertex prev = arm;
      for (std::size_t k = 1 + rng.below(4); k > 0; --k) {
        edges.emplace_back(prev, next);
        prev = next++;
      }
    }
  }
  return from_edges(next, edges);
}

// Graphs that leave mask mode mid-run (wider fronts, more components) or
// split the untouched region next to it often (bridged block streams),
// each also relabelled. Every family must run mask steps, and the first
// two must leave mask mode, or the corpus does not test the switch.
TEST(McsmReference, MaskModeExits) {
  support::SplitMix64 rng(0x3a5c);
  struct Family {
    const char* name;
    std::function<Graph()> make;
    bool must_exit;
    std::size_t mask_steps = 0;
    std::size_t exits = 0;
  } families[] = {
      {"wide stream", [&] { return wide_stream(rng); }, true},
      {"broom",
       [&] { return broom(8 + rng.below(40), 33 + rng.below(28), rng); },
       true},
      {"bridged blocks", [&] { return block_stream(rng); }, false},
  };
  for (Family& f : families) {
    for (std::size_t i = 0; i < 12; ++i) {
      const Graph g = f.make();
      for (const Graph& h : {g, relabelled(g, rng)}) {
        const Triangulation t = expect_same(h, f.name, i);
        f.mask_steps += t.mask_steps;
        f.exits += t.mask_exit ? 1 : 0;
      }
    }
    EXPECT_GT(f.mask_steps, 0u) << f.name;
    if (f.must_exit) {
      EXPECT_GT(f.exits, 0u) << f.name;
    }
  }
}

// The reference itself, on graphs small enough to check by hand: a cycle
// needs n - 3 fill edges and a chordal graph none.
TEST(McsmReference, ReferenceFillOnKnownGraphs) {
  EXPECT_EQ(reference_mcs_m(Graph::cycle(7)).fill.size(), 4u);
  EXPECT_TRUE(reference_mcs_m(Graph::path(9)).fill.empty());
  EXPECT_TRUE(reference_mcs_m(Graph::complete(5)).fill.empty());
}

}  // namespace
}  // namespace parmem::graph
