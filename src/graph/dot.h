// Graphviz (DOT) export for graphs and colorings — the debugging view for
// conflict-graph work (`mcc --dump-dot`).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/coloring.h"
#include "graph/graph.h"

namespace parmem::graph {

struct DotOptions {
  std::string graph_name = "G";
  /// Vertex labels; empty == numeric ids.
  std::function<std::string(Vertex)> label;
  /// Optional coloring: colored vertices are filled from a palette,
  /// kUncolored vertices drawn dashed (the removed / V_unassigned look).
  const Coloring* coloring = nullptr;
  /// Optional edge annotation (e.g. the conflict count).
  std::function<std::string(Vertex, Vertex)> edge_label;
};

/// Renders an undirected graph in DOT syntax.
std::string to_dot(const Graph& g, const DotOptions& options = {});

}  // namespace parmem::graph
