// Access-conflict graph (§2).
//
// "A graph in which the nodes represent the data values and the edges
// represent the conflicts among them is constructed." Each edge carries
// conf(u, v): the number of instructions in which both values appear —
// the weight the Fig. 4 coloring heuristic is driven by.
//
// Only values that actually occur in the tuples become vertices. STOR2's
// value stages and STOR3's instruction windows select their operands
// before the build (build_from_insts).
//
// Layout: the underlying Graph is packed CSR (see graph/graph.h)
// and the conf weights live in an array parallel to the flat CSR neighbor
// array. Iterating a vertex's neighbors therefore yields the matching
// weights as a same-index read from conf_weights() — the hot loops of the
// Fig. 4 heuristic never touch a hash table. Point queries conf(u, v) fall
// back to a binary search of the shorter CSR row; per-vertex weight totals
// are precomputed at build.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "ir/access.h"

namespace parmem::assign {

class ConflictGraph {
 public:
  /// Builds the conflict graph of every tuple in the stream.
  static ConflictGraph build(const ir::AccessStream& stream);

  /// Builds from explicit operand lists (already filtered); `insts[i]` is
  /// the distinct value ids fetched by instruction i.
  static ConflictGraph build_from_insts(
      std::size_t value_count,
      const std::vector<std::vector<ir::ValueId>>& insts);

  const graph::Graph& graph() const { return g_; }
  std::size_t vertex_count() const { return g_.vertex_count(); }

  ir::ValueId value_of(graph::Vertex v) const { return vertex_to_value_[v]; }

  /// Vertex of a value, or -1 if the value is not in this graph.
  std::int64_t vertex_of(ir::ValueId id) const {
    return id < value_to_vertex_.size() ? value_to_vertex_[id] : -1;
  }

  /// Sorted neighbor list of `v` (same as graph().neighbors(v)).
  std::span<const graph::Vertex> neighbors(graph::Vertex v) const {
    return g_.neighbors(v);
  }

  /// conf weights parallel to neighbors(v): conf_weights(v)[i] is
  /// conf(v, neighbors(v)[i]).
  std::span<const std::uint32_t> conf_weights(graph::Vertex v) const {
    return {conf_w_.data() + g_.neighbor_base(v), g_.degree(v)};
  }

  /// conf(u, v): number of selected instructions using both values.
  std::uint32_t conf(graph::Vertex u, graph::Vertex v) const;

  /// Total conflict weight at a vertex: sum of conf over incident edges
  /// (precomputed at build).
  std::uint64_t conf_sum(graph::Vertex v) const { return conf_sums_[v]; }

 private:
  graph::Graph g_{0};
  std::vector<ir::ValueId> vertex_to_value_;
  std::vector<std::int64_t> value_to_vertex_;
  /// Edge weights, parallel to the Graph's flat CSR neighbor array.
  std::vector<std::uint32_t> conf_w_;
  std::vector<std::uint64_t> conf_sums_;
};

}  // namespace parmem::assign
