// Undirected simple graph.
//
// This is the substrate for the paper's access-conflict graphs (§2): nodes
// are data values, edges join values that appear as operands of the same
// long instruction. It keeps neighbor lists sorted so algorithms get
// deterministic iteration order. The one representation is packed CSR —
// one offsets array plus one flat neighbors array, O(n + m) memory — built
// whole by from_sorted_edges() or from_edges() and immutable afterwards, so
// a Graph is safe to share read-only across threads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace parmem::graph {

using Vertex = std::uint32_t;

/// Sorts `pairs` ascending by (first, second), all ids below `n`: two
/// stable counting passes (LSD radix — by second, then by first), O(p + n)
/// time and one p-entry scratch array. The one pair ordering behind the
/// conflict-graph edge list and MCS-M's fill.
void sort_pairs(std::vector<std::pair<Vertex, Vertex>>& pairs, std::size_t n);

class Graph {
 public:
  /// Creates a graph with `n` isolated vertices 0..n-1.
  explicit Graph(std::size_t n = 0);

  /// Bulk constructor: `edges` must be sorted ascending, unique, with
  /// u < v for every entry. Lays the CSR rows out directly, with no
  /// per-edge insertion churn.
  static Graph from_sorted_edges(
      std::size_t n, std::span<const std::pair<Vertex, Vertex>> edges);

  /// Undirected edges in any order and orientation; duplicates are
  /// dropped, self-loops and ids >= n rejected. Sorts with sort_pairs and
  /// builds through from_sorted_edges.
  static Graph from_edges(std::size_t n,
                          std::vector<std::pair<Vertex, Vertex>> edges);

  /// O(log degree): a binary search of the shorter of the two rows.
  bool has_edge(Vertex u, Vertex v) const;

  /// Sorted neighbor list of `v`.
  std::span<const Vertex> neighbors(Vertex v) const;

  /// Index of the first neighbor of `v` in the flat CSR neighbor array —
  /// the key that lets callers keep arrays parallel to the neighbor list
  /// (the conflict graph stores edge weights this way).
  std::size_t neighbor_base(Vertex v) const;

  /// Total length of the flat CSR neighbor array (2 * edge_count()).
  std::size_t neighbor_array_size() const { return neighbors_.size(); }

  std::size_t degree(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }
  std::size_t vertex_count() const { return n_; }
  std::size_t edge_count() const { return edge_count_; }

  /// True iff every pair of distinct vertices in `set` is adjacent (a
  /// repeated vertex counts once). The empty set and singletons are
  /// cliques.
  bool is_clique(std::span<const Vertex> set) const;

  /// Subgraph induced by `keep` (need not be sorted). The i-th vertex of the
  /// result corresponds to keep[i]; `keep` itself is the back-mapping.
  Graph induced(std::span<const Vertex> keep) const;

  /// Connected component containing `start`, restricted to vertices for
  /// which `alive[v]` is true (alive.size() == vertex_count()). `start` must
  /// be alive. Result is sorted ascending.
  std::vector<Vertex> component_of(Vertex start,
                                   const std::vector<bool>& alive) const;

  // ---- Constructors for common shapes (used by tests and benches) ----
  static Graph complete(std::size_t n);
  static Graph cycle(std::size_t n);
  static Graph path(std::size_t n);
  /// Erdos-Renyi G(n, p) with a deterministic generator.
  static Graph random(std::size_t n, double p, support::SplitMix64& rng);

  /// Multi-line human-readable dump (vertex: neighbor list).
  std::string to_string() const;

 private:
  void check_vertex(Vertex v) const;

  std::size_t n_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<std::uint32_t> offsets_;  // n_ + 1 entries
  std::vector<Vertex> neighbors_;       // flat, rows sorted ascending
};

}  // namespace parmem::graph
