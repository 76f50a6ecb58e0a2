// Golden pins of MCS-M's output: the elimination order and the fill of the
// minimal triangulation, folded with FNV-1a. The atom decomposition, and
// through it every coloring golden, is a function of exactly these two
// sequences, so any change to the search that moves one vertex or one fill
// edge fails here first, with the graph named.
//
// Inputs: the whole-stream (STOR1) conflict graphs of the six paper
// programs; the two large perfbench streams at their generator seeds
// (without the per-seed relabelling) and the fixed service edit base; and
// one combined hash over seeded uniform, band, cyclic-band and block
// graphs of 50-750 vertices. McsmWork bounds the search work counter.
#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "assign/conflict_graph.h"
#include "graph/mcsm.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::graph {
namespace {

std::uint64_t hash_triangulation(const Triangulation& t,
                                 std::uint64_t h = support::kFnvOffsetBasis) {
  using support::fnv1a_u64;
  h = fnv1a_u64(h, t.order.size());
  for (const Vertex v : t.order) h = fnv1a_u64(h, v);
  h = fnv1a_u64(h, t.fill.size());
  for (const auto& [u, v] : t.fill) h = fnv1a_u64(fnv1a_u64(h, u), v);
  return h;
}

std::uint64_t pin_of(const ir::AccessStream& stream) {
  const auto cg = assign::ConflictGraph::build(stream);
  return hash_triangulation(mcs_m(cg.graph()));
}

// The options `mcc --workload NAME --strategy STOR1` compiles with.
ir::AccessStream paper_stream(const workloads::Workload& w) {
  analysis::PipelineOptions o;
  o.sched.fu_count = 8;
  o.sched.module_count = 8;
  o.assign.module_count = 8;
  o.assign.strategy = assign::Strategy::kStor1;
  o.assign.method = assign::DupMethod::kHittingSet;
  return analysis::compile_mc(w.source, o).stream;
}

TEST(McsmGolden, PaperProgramsStor1) {
  const struct {
    const char* name;
    std::uint64_t pin;
  } kPins[] = {
      {"TAYLOR1", 0x1fe9d14ea9bd1d02ULL}, {"TAYLOR2", 0xce3490181eb248d0ULL},
      {"EXACT", 0x38a7910bd62f5ad7ULL},   {"FFT", 0x42d590e2d2944a50ULL},
      {"SORT", 0x859d25fc26bc7945ULL},    {"COLOR", 0x856fc74b1857865dULL},
  };
  for (const auto& p : kPins) {
    EXPECT_EQ(pin_of(paper_stream(workloads::workload(p.name))), p.pin)
        << p.name;
  }
}

// perfbench's syn_monolithic: one 4,093-vertex non-chordal component.
ir::AccessStream syn_monolithic() {
  workloads::StreamGenOptions g;
  g.value_count = 4096;
  g.tuple_count = 20000;
  g.min_width = 2;
  g.max_width = 4;
  g.locality_window = 24;
  g.region_count = 8;
  support::SplitMix64 rng(0x5eed1);
  return workloads::random_stream(g, rng);
}

TEST(McsmGolden, LargeStreams) {
  EXPECT_EQ(pin_of(syn_monolithic()), 0x408fa2595ae24cddULL)
      << "syn_monolithic";

  workloads::ModularStreamOptions modular;
  modular.block_count = 16;
  modular.values_per_block = 256;
  modular.tuples_per_block = 1200;
  modular.locality_window = 24;
  modular.bridge_tuples = 6;
  support::SplitMix64 modular_rng(0x5eed2);
  EXPECT_EQ(pin_of(workloads::modular_stream(modular, modular_rng)),
            0x296233159daf9c1bULL)
      << "syn_modular";

  workloads::ModularStreamOptions edit;
  edit.block_count = 8;
  edit.values_per_block = 96;
  edit.tuples_per_block = 300;
  support::SplitMix64 edit_rng(0xabc3);
  EXPECT_EQ(pin_of(workloads::modular_stream(edit, edit_rng)),
            0xdcf7a26dd9675d7fULL)
      << "service edit base";
}

// The search work counter is deterministic, so this is a structural bound,
// not a timing: on the locality graph it stays linear-ish in the graph's
// size (about 21 (n + 2m)) where a search that floods the untouched region
// scans about 1,950 (n + 2m).
TEST(McsmWork, SynMonolithicSearchStaysNearLinear) {
  const auto cg = assign::ConflictGraph::build(syn_monolithic());
  const Graph& g = cg.graph();
  const Triangulation tri = mcs_m(g);
  const std::uint64_t size = g.vertex_count() + 2 * g.edge_count();
  EXPECT_GT(tri.search_edges, size);
  EXPECT_LE(tri.search_edges, 64 * size);
}

// Edges {i, j} for i < j <= i + width with probability p; `cyclic` wraps j
// around n, closing the band into a ring.
Graph band(std::size_t n, std::size_t width, double p, bool cyclic,
           support::SplitMix64& rng) {
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 1; d <= width; ++d) {
      if (!cyclic && i + d >= n) break;
      const std::size_t j = (i + d) % n;
      if (j != i && rng.uniform() < p) {
        g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(j));
      }
    }
  }
  g.finalize();
  return g;
}

// Dense random blocks joined by a few edges between consecutive blocks;
// with `bridges` == 0 the blocks stay disconnected.
Graph blocks(std::size_t n, std::size_t block, double p, std::size_t bridges,
             support::SplitMix64& rng) {
  Graph g(n);
  for (std::size_t lo = 0; lo < n; lo += block) {
    const std::size_t hi = std::min(n, lo + block);
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < hi; ++j) {
        if (rng.uniform() < p) {
          g.add_edge(static_cast<Vertex>(i), static_cast<Vertex>(j));
        }
      }
    }
    if (hi == n) break;
    const std::size_t next_hi = std::min(n, hi + block);
    for (std::size_t b = 0; b < bridges; ++b) {
      g.add_edge(static_cast<Vertex>(lo + rng.below(hi - lo)),
                 static_cast<Vertex>(hi + rng.below(next_hi - hi)));
    }
  }
  g.finalize();
  return g;
}

TEST(McsmGolden, SeededGraphs) {
  constexpr std::size_t kGraphs = 600;
  support::SplitMix64 rng(0x3c5);
  std::uint64_t h = support::kFnvOffsetBasis;
  for (std::size_t i = 0; i < kGraphs; ++i) {
    const std::size_t n = 50 + rng.below(701);
    Graph g;
    switch (i % 4) {
      case 0: {
        const double degree = 1.5 + 6.0 * rng.uniform();
        g = Graph::random(n, degree / static_cast<double>(n - 1), rng);
        g.finalize();
        break;
      }
      case 1:
      case 2: {
        const std::size_t width = 2 + rng.below(14);
        g = band(n, width, 0.25 + 0.6 * rng.uniform(), i % 4 == 2, rng);
        break;
      }
      default:
        g = blocks(n, 8 + rng.below(40), 0.1 + 0.4 * rng.uniform(),
                   rng.below(4), rng);
        break;
    }
    h = hash_triangulation(mcs_m(g), h);
  }
  EXPECT_EQ(h, 0x2802c77d8e211b58ULL);
}

}  // namespace
}  // namespace parmem::graph
