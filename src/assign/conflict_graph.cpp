#include "assign/conflict_graph.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace parmem::assign {

ConflictGraph ConflictGraph::build_from_insts(
    std::size_t value_count,
    const std::vector<std::vector<ir::ValueId>>& insts) {
  ConflictGraph cg;
  cg.value_to_vertex_.assign(value_count, -1);

  // First pass: discover vertices in first-occurrence order and count the
  // operand pairs so the edge stream can be ingested in one reserved go.
  std::size_t pair_count = 0;
  for (const auto& ops : insts) {
    pair_count += ops.size() * (ops.size() - 1) / 2;
    for (const ir::ValueId v : ops) {
      PARMEM_CHECK(v < value_count, "instruction value id out of range");
      if (cg.value_to_vertex_[v] < 0) {
        cg.value_to_vertex_[v] =
            static_cast<std::int64_t>(cg.vertex_to_value_.size());
        cg.vertex_to_value_.push_back(v);
      }
    }
  }
  const std::size_t n = cg.vertex_to_value_.size();

  // Second pass: one flat stream of normalized (min, max) vertex pairs in
  // a single reserved allocation, put in (min, max) order by
  // graph::sort_pairs' two counting passes. Equal pairs end up adjacent,
  // and the run length is exactly conf(u, v).
  std::vector<std::pair<graph::Vertex, graph::Vertex>> pairs;
  pairs.reserve(pair_count);
  for (const auto& ops : insts) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto u = static_cast<graph::Vertex>(cg.value_to_vertex_[ops[i]]);
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const auto v = static_cast<graph::Vertex>(cg.value_to_vertex_[ops[j]]);
        PARMEM_CHECK(u != v, "duplicate operand in instruction");
        pairs.emplace_back(std::min(u, v), std::max(u, v));
      }
    }
  }
  graph::sort_pairs(pairs, n);

  std::size_t edge_count = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    edge_count += i == 0 || pairs[i] != pairs[i - 1];
  }
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  std::vector<std::uint32_t> weights;  // parallel to edges
  edges.reserve(edge_count);
  weights.reserve(edge_count);
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t j = i;
    while (j < pairs.size() && pairs[j] == pairs[i]) ++j;
    edges.push_back(pairs[i]);
    weights.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }

  cg.g_ = graph::Graph::from_sorted_edges(n, edges);

  // Scatter the per-edge weights into the CSR-parallel array. Rows are
  // sorted, and within a row the smaller-neighbor entries (edge max == row)
  // arrive in ascending edge order followed by the larger-neighbor entries
  // (edge min == row), exactly as from_sorted_edges lays them out — so two
  // sequential passes with per-row cursors fill every slot in order.
  cg.conf_w_.resize(cg.g_.neighbor_array_size());
  cg.conf_sums_.assign(n, 0);
  std::vector<std::uint32_t> cursor(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    cursor[v] = static_cast<std::uint32_t>(cg.g_.neighbor_base(v));
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    cg.conf_w_[cursor[edges[e].second]++] = weights[e];
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    cg.conf_w_[cursor[edges[e].first]++] = weights[e];
  }
  for (graph::Vertex v = 0; v < n; ++v) {
    for (const std::uint32_t w : cg.conf_weights(v)) cg.conf_sums_[v] += w;
  }
  return cg;
}

ConflictGraph ConflictGraph::build(const ir::AccessStream& stream,
                                   const StreamView& view) {
  const auto value_included = [&](ir::ValueId v) {
    return view.value_mask.empty() || view.value_mask[v];
  };

  std::vector<std::uint32_t> tuples = view.tuple_indices;
  if (tuples.empty()) {
    tuples.resize(stream.tuples.size());
    for (std::uint32_t i = 0; i < tuples.size(); ++i) tuples[i] = i;
  }

  std::vector<std::vector<ir::ValueId>> insts;
  insts.reserve(tuples.size());
  std::vector<ir::ValueId> ops;
  for (const std::uint32_t ti : tuples) {
    PARMEM_CHECK(ti < stream.tuples.size(), "tuple index out of range");
    ops.clear();
    ops.reserve(stream.tuples[ti].operands.size());
    for (const ir::ValueId v : stream.tuples[ti].operands) {
      if (value_included(v)) ops.push_back(v);
    }
    if (!ops.empty()) insts.push_back(ops);
  }
  return build_from_insts(stream.value_count, insts);
}

std::uint32_t ConflictGraph::conf(graph::Vertex u, graph::Vertex v) const {
  // Binary search the shorter CSR row; the weight sits at the same index.
  if (g_.degree(v) < g_.degree(u)) std::swap(u, v);
  const auto row = g_.neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return 0;
  return conf_w_[g_.neighbor_base(u) + static_cast<std::size_t>(it - row.begin())];
}

}  // namespace parmem::assign
