#include "graph/graph.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/diagnostics.h"

namespace parmem::graph {

void sort_pairs(std::vector<std::pair<Vertex, Vertex>>& pairs,
                std::size_t n) {
  std::vector<std::size_t> first_start(n + 1, 0);
  std::vector<std::size_t> second_start(n + 1, 0);
  for (const auto& [a, b] : pairs) {
    PARMEM_CHECK(a < n && b < n, "sort_pairs: vertex out of range");
    ++first_start[a + 1];
    ++second_start[b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    first_start[v + 1] += first_start[v];
    second_start[v + 1] += second_start[v];
  }
  std::vector<std::pair<Vertex, Vertex>> by_second(pairs.size());
  for (const auto& p : pairs) by_second[second_start[p.second]++] = p;
  for (const auto& p : by_second) pairs[first_start[p.first]++] = p;
}

Graph::Graph(std::size_t n) : n_(n), offsets_(n + 1, 0) {}

void Graph::check_vertex(Vertex v) const {
  PARMEM_CHECK(v < n_, "vertex id out of range");
}

Graph Graph::from_sorted_edges(
    std::size_t n, std::span<const std::pair<Vertex, Vertex>> edges) {
  Graph g(n);
  g.edge_count_ = edges.size();

  // Degree count, then prefix sums, then a second placement pass. Each
  // row receives first its smaller neighbors (edges where v is the max
  // endpoint, in ascending u order) and then its larger ones, so rows come
  // out sorted without any per-row sort.
  std::vector<std::uint32_t> deg(n, 0);
  for (const auto& [u, v] : edges) {
    PARMEM_CHECK(u < v && v < n, "from_sorted_edges: bad edge");
    ++deg[u];
    ++deg[v];
  }
  for (std::size_t v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];
  g.neighbors_.resize(g.offsets_[n]);
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) g.neighbors_[cursor[v]++] = u;
  for (const auto& [u, v] : edges) g.neighbors_[cursor[u]++] = v;
  for (std::size_t v = 0; v < n; ++v) {
    PARMEM_CHECK(std::is_sorted(g.neighbors_.begin() + g.offsets_[v],
                                g.neighbors_.begin() + g.offsets_[v + 1]) &&
                     std::adjacent_find(g.neighbors_.begin() + g.offsets_[v],
                                        g.neighbors_.begin() +
                                            g.offsets_[v + 1]) ==
                         g.neighbors_.begin() + g.offsets_[v + 1],
                 "from_sorted_edges: edges not sorted unique");
  }
  return g;
}

Graph Graph::from_edges(std::size_t n,
                        std::vector<std::pair<Vertex, Vertex>> edges) {
  for (auto& [u, v] : edges) {
    PARMEM_CHECK(u < n && v < n, "vertex id out of range");
    PARMEM_CHECK(u != v, "self-loops are not allowed");
    if (u > v) std::swap(u, v);
  }
  sort_pairs(edges, n);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return from_sorted_edges(n, edges);
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  check_vertex(u);
  check_vertex(v);
  if (u == v) return false;
  // Probe the smaller adjacency list.
  const auto nu = neighbors(u);
  const auto nv = neighbors(v);
  const auto& n = nu.size() <= nv.size() ? nu : nv;
  const Vertex target = nu.size() <= nv.size() ? v : u;
  return std::binary_search(n.begin(), n.end(), target);
}

std::span<const Vertex> Graph::neighbors(Vertex v) const {
  check_vertex(v);
  return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t Graph::neighbor_base(Vertex v) const {
  check_vertex(v);
  return offsets_[v];
}

bool Graph::is_clique(std::span<const Vertex> set) const {
  // Binary-search each member's sorted row for the members after it; no
  // scratch, so concurrent readers stay safe. Stops at the first missing
  // edge.
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto row = neighbors(set[i]);
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      if (set[j] != set[i] &&
          !std::binary_search(row.begin(), row.end(), set[j])) {
        return false;
      }
    }
  }
  return true;
}

Graph Graph::induced(std::span<const Vertex> keep) const {
  std::vector<std::int64_t> to_new(n_, -1);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    check_vertex(keep[i]);
    PARMEM_CHECK(to_new[keep[i]] < 0, "duplicate vertex in induced() set");
    to_new[keep[i]] = static_cast<std::int64_t>(i);
  }
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (const Vertex w : neighbors(keep[i])) {
      const std::int64_t j = to_new[w];
      if (j >= 0 && static_cast<std::size_t>(j) > i) {
        edges.emplace_back(static_cast<Vertex>(i), static_cast<Vertex>(j));
      }
    }
  }
  return from_edges(keep.size(), std::move(edges));
}

std::vector<Vertex> Graph::component_of(Vertex start,
                                        const std::vector<bool>& alive) const {
  check_vertex(start);
  PARMEM_CHECK(alive.size() == n_, "alive mask size must match vertex count");
  PARMEM_CHECK(alive[start], "component_of start vertex must be alive");
  std::vector<Vertex> stack{start};
  std::vector<bool> seen(n_, false);
  seen[start] = true;
  std::vector<Vertex> comp;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    comp.push_back(v);
    for (const Vertex w : neighbors(v)) {
      if (alive[w] && !seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  std::sort(comp.begin(), comp.end());
  return comp;
}

Graph Graph::complete(std::size_t n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return from_edges(n, std::move(edges));
}

Graph Graph::cycle(std::size_t n) {
  PARMEM_CHECK(n >= 3, "cycle needs at least 3 vertices");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.emplace_back(v, static_cast<Vertex>((v + 1) % n));
  }
  return from_edges(n, std::move(edges));
}

Graph Graph::path(std::size_t n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return from_edges(n, std::move(edges));
}

Graph Graph::random(std::size_t n, double p, support::SplitMix64& rng) {
  PARMEM_CHECK(p >= 0.0 && p <= 1.0, "edge probability must be in [0,1]");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (rng.uniform() < p) edges.emplace_back(u, v);
    }
  }
  return from_edges(n, std::move(edges));
}

std::string Graph::to_string() const {
  std::ostringstream os;
  for (Vertex v = 0; v < n_; ++v) {
    os << v << ':';
    for (const Vertex w : neighbors(v)) os << ' ' << w;
    os << '\n';
  }
  return os.str();
}

}  // namespace parmem::graph
