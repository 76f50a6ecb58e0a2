#include "graph/coloring.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace parmem::graph {

bool is_valid_coloring(const Graph& g, const Coloring& coloring,
                       std::size_t k) {
  if (coloring.size() != g.vertex_count()) return false;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const std::int32_t c = coloring[v];
    if (c == kUncolored) continue;
    if (c < 0 || static_cast<std::size_t>(c) >= k) return false;
    for (const Vertex w : g.neighbors(v)) {
      if (coloring[w] == c) return false;
    }
  }
  return true;
}

namespace {

bool exact_color_rec(const Graph& g, std::size_t k, Coloring& coloring,
                     const std::vector<Vertex>& order, std::size_t idx,
                     std::size_t max_used) {
  if (idx == order.size()) return true;
  const Vertex v = order[idx];
  if (coloring[v] != kUncolored) {
    return exact_color_rec(g, k, coloring, order, idx + 1, max_used);
  }
  std::vector<bool> used(k, false);
  for (const Vertex w : g.neighbors(v)) {
    const std::int32_t c = coloring[w];
    if (c >= 0) used[c] = true;
  }
  // Symmetry breaking: allow at most one brand-new color.
  const std::size_t limit = std::min(k, max_used + 1);
  for (std::size_t c = 0; c < limit; ++c) {
    if (used[c]) continue;
    coloring[v] = static_cast<std::int32_t>(c);
    if (exact_color_rec(g, k, coloring, order, idx + 1,
                        std::max(max_used, c + 1))) {
      return true;
    }
  }
  coloring[v] = kUncolored;
  return false;
}

}  // namespace

std::optional<Coloring> exact_color(const Graph& g, std::size_t k,
                                    const Coloring& fixed) {
  const std::size_t n = g.vertex_count();
  Coloring coloring(n, kUncolored);
  std::size_t max_used = 0;
  if (!fixed.empty()) {
    PARMEM_CHECK(fixed.size() == n, "fixed coloring size mismatch");
    coloring = fixed;
    PARMEM_CHECK(is_valid_coloring(g, coloring, k),
                 "fixed pre-coloring is itself invalid");
    for (const std::int32_t c : coloring) {
      if (c >= 0) max_used = std::max(max_used, static_cast<std::size_t>(c) + 1);
    }
    // Pre-colored vertices break the new-color symmetry argument.
    max_used = std::max(max_used, k);
  }
  // Order by decreasing degree: fail fast on dense parts.
  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return g.degree(a) > g.degree(b);
  });
  if (exact_color_rec(g, k, coloring, order, 0, max_used)) {
    return coloring;
  }
  return std::nullopt;
}

}  // namespace parmem::graph
