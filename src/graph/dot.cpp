#include "graph/dot.h"

#include <sstream>

namespace parmem::graph {
namespace {

// A small qualitative palette (colorblind-safe-ish).
const char* kPalette[] = {"#4477aa", "#ee6677", "#228833", "#ccbb44",
                          "#66ccee", "#aa3377", "#bbbbbb", "#44aa99"};
constexpr std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

/// `prefix` followed by decimal `n`. Appended, not `"v" + std::to_string(n)`:
/// GCC 12 at -O3 flags that temporary's prepend with a false -Wrestrict.
std::string numbered(std::string prefix, std::size_t n) {
  prefix += std::to_string(n);
  return prefix;
}

std::string vertex_label(const DotOptions& o, Vertex v) {
  return o.label ? o.label(v) : numbered("v", v);
}

void emit_vertex(std::ostringstream& os, const DotOptions& o, Vertex v,
                 const std::string& node_name) {
  os << "  " << node_name << " [label=\"" << vertex_label(o, v) << '"';
  if (o.coloring != nullptr && v < o.coloring->size()) {
    const std::int32_t c = (*o.coloring)[v];
    if (c >= 0) {
      os << ", style=filled, fillcolor=\""
         << kPalette[static_cast<std::size_t>(c) % kPaletteSize] << '"';
    } else {
      os << ", style=dashed";
    }
  }
  os << "];\n";
}

}  // namespace

std::string to_dot(const Graph& g, const DotOptions& options) {
  std::ostringstream os;
  os << "graph " << options.graph_name << " {\n"
     << "  node [shape=circle, fontsize=11];\n";
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    emit_vertex(os, options, v, numbered("n", v));
  }
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (const Vertex w : g.neighbors(v)) {
      if (w < v) continue;
      os << "  n" << v << " -- n" << w;
      if (options.edge_label) {
        os << " [label=\"" << options.edge_label(v, w) << "\"]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace parmem::graph
