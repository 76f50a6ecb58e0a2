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
// graphs of 50-750 vertices. McsmWork bounds the search work counter on
// the large streams and the edit base, and pins the split's flood counter
// on COLOR.
// FrontHalfGolden pins the other stages before colouring on the same
// inputs: the parsed stream, the conflict graph, the atoms, and the large
// streams' placement and copy count.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "assign/conflict_graph.h"
#include "graph/atoms.h"
#include "graph/mcsm.h"
#include "ir/stream_io.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "telemetry/registry.h"
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

// 4,096 values, 20,000 tuples of width 2..4, locality window 24, 8
// regions: one giant non-chordal component.
ir::AccessStream locality_stream(std::uint64_t seed) {
  workloads::StreamGenOptions g;
  g.value_count = 4096;
  g.tuple_count = 20000;
  g.min_width = 2;
  g.max_width = 4;
  g.locality_window = 24;
  g.region_count = 8;
  support::SplitMix64 rng(seed);
  return workloads::random_stream(g, rng);
}

// perfbench's syn_monolithic: one 4,093-vertex non-chordal component.
ir::AccessStream syn_monolithic() { return locality_stream(0x5eed1); }

// perfbench's syn_modular: 16 blocks joined by bridge tuples (~83 atoms).
ir::AccessStream syn_modular() {
  workloads::ModularStreamOptions modular;
  modular.block_count = 16;
  modular.values_per_block = 256;
  modular.tuples_per_block = 1200;
  modular.locality_window = 24;
  modular.bridge_tuples = 6;
  support::SplitMix64 rng(0x5eed2);
  return workloads::modular_stream(modular, rng);
}

// The fixed base stream of the service edit requests.
ir::AccessStream edit_base() {
  workloads::ModularStreamOptions edit;
  edit.block_count = 8;
  edit.values_per_block = 96;
  edit.tuples_per_block = 300;
  support::SplitMix64 rng(0xabc3);
  return workloads::modular_stream(edit, rng);
}

TEST(McsmGolden, LargeStreams) {
  EXPECT_EQ(pin_of(syn_monolithic()), 0x408fa2595ae24cddULL)
      << "syn_monolithic";
  EXPECT_EQ(pin_of(syn_modular()), 0x296233159daf9c1bULL) << "syn_modular";
  EXPECT_EQ(pin_of(edit_base()), 0xdcf7a26dd9675d7fULL)
      << "service edit base";
}

// The search work counter is deterministic, so this is a structural bound,
// not a timing: on the locality graph it stays linear-ish in the graph's
// size (about 20 (n + 2m)) where a search that floods the untouched region
// scans about 1,950 (n + 2m).
void expect_near_linear_work(const ir::AccessStream& stream) {
  const auto cg = assign::ConflictGraph::build(stream);
  const Graph& g = cg.graph();
  const Triangulation tri = mcs_m(g);
  const std::uint64_t size = g.vertex_count() + 2 * g.edge_count();
  EXPECT_GT(tri.search_edges, size);
  EXPECT_LE(tri.search_edges, 64 * size);
}

TEST(McsmWork, SynMonolithicSearchStaysNearLinear) {
  expect_near_linear_work(syn_monolithic());
}

// The block-structured streams label too, and split their untouched
// region at every bridge.
TEST(McsmWork, SynModularSearchStaysNearLinear) {
  expect_near_linear_work(syn_modular());
}

TEST(McsmWork, EditBaseSearchStaysNearLinear) {
  expect_near_linear_work(edit_base());
}

// The large streams' touched front stays within the 64 mask slots from
// labelling to the end, so every later search is a mask closure.
TEST(McsmWork, LargeStreamsStayInMaskMode) {
  for (const auto& stream : {syn_monolithic(), syn_modular(), edit_base()}) {
    const auto cg = assign::ConflictGraph::build(stream);
    const Triangulation tri = mcs_m(cg.graph());
    EXPECT_GT(tri.mask_steps, cg.vertex_count() - 16);
    EXPECT_FALSE(tri.mask_exit);
  }
}

// The split floods only from MCS-M generators that are still in the
// working graph and whose later neighbourhood is a nonempty clique of G: on
// COLOR, 305 floods for 943 atoms, from 942 generators among 6,384
// vertices (a scan of every vertex floods 5,746 times). The counter is a
// pure function of the graph, like search_edges.
TEST(McsmWork, ColorSplitFloodsOnlyFromGenerators) {
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "the counter is compiled out";
  }
  const auto cg =
      assign::ConflictGraph::build(paper_stream(workloads::workload("COLOR")));
  ASSERT_EQ(cg.vertex_count(), 6384u);
  const auto before = telemetry::Registry::instance().snapshot();
  decompose_by_clique_separators(cg.graph());
  const auto delta = telemetry::Registry::instance().snapshot().since(before);
  EXPECT_EQ(delta.value("graph.atoms.separator_tests"), 305);
}

// Edges {i, j} for i < j <= i + width with probability p; `cyclic` wraps j
// around n, closing the band into a ring.
Graph band(std::size_t n, std::size_t width, double p, bool cyclic,
           support::SplitMix64& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 1; d <= width; ++d) {
      if (!cyclic && i + d >= n) break;
      const std::size_t j = (i + d) % n;
      if (j != i && rng.uniform() < p) {
        edges.emplace_back(static_cast<Vertex>(i), static_cast<Vertex>(j));
      }
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

// Dense random blocks joined by a few edges between consecutive blocks;
// with `bridges` == 0 the blocks stay disconnected.
Graph blocks(std::size_t n, std::size_t block, double p, std::size_t bridges,
             support::SplitMix64& rng) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t lo = 0; lo < n; lo += block) {
    const std::size_t hi = std::min(n, lo + block);
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i + 1; j < hi; ++j) {
        if (rng.uniform() < p) {
          edges.emplace_back(static_cast<Vertex>(i), static_cast<Vertex>(j));
        }
      }
    }
    if (hi == n) break;
    const std::size_t next_hi = std::min(n, hi + block);
    for (std::size_t b = 0; b < bridges; ++b) {
      // The far endpoint is drawn first: the pinned corpus was generated
      // with that draw order.
      const auto v = static_cast<Vertex>(hi + rng.below(next_hi - hi));
      const auto u = static_cast<Vertex>(lo + rng.below(hi - lo));
      edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

// Graph i of the seeded corpus: uniform, band, cyclic band or blocks by
// i % 4, with 50-750 vertices, drawn from `rng`.
Graph seeded_graph(std::size_t i, support::SplitMix64& rng) {
  const std::size_t n = 50 + rng.below(701);
  switch (i % 4) {
    case 0: {
      const double degree = 1.5 + 6.0 * rng.uniform();
      return Graph::random(n, degree / static_cast<double>(n - 1), rng);
    }
    case 1:
    case 2: {
      const std::size_t width = 2 + rng.below(14);
      return band(n, width, 0.25 + 0.6 * rng.uniform(), i % 4 == 2, rng);
    }
    default: {
      // One draw per statement, in the order the pinned hashes were taken.
      const std::size_t bridges = rng.below(4);
      const double p = 0.1 + 0.4 * rng.uniform();
      const std::size_t block = 8 + rng.below(40);
      return blocks(n, block, p, bridges, rng);
    }
  }
}

constexpr std::size_t kSeededGraphs = 600;
constexpr std::uint64_t kSeededGraphSeed = 0x3c5;

TEST(McsmGolden, SeededGraphs) {
  support::SplitMix64 rng(kSeededGraphSeed);
  std::uint64_t h = support::kFnvOffsetBasis;
  for (std::size_t i = 0; i < kSeededGraphs; ++i) {
    h = hash_triangulation(mcs_m(seeded_graph(i, rng)), h);
  }
  EXPECT_EQ(h, 0x2802c77d8e211b58ULL);
}

// Pins of the stages before colouring, folded with FNV-1a: the parsed
// stream, the conflict graph (vertex map, CSR rows, conf weights), the
// clique-separator atoms in generation order, and the placement and copy
// count of the whole assignment on the large streams, which the
// CsrDifferential matrix leaves out. A rewrite of the parser, the
// conflict-graph build, MCS-M or the split that moves one byte fails here
// with the input named.

std::uint64_t hash_stream(const ir::AccessStream& s) {
  using support::fnv1a_u64;
  std::uint64_t h = fnv1a_u64(support::kFnvOffsetBasis, s.value_count);
  for (const bool b : s.duplicatable) h = fnv1a_u64(h, b ? 1 : 0);
  for (const bool b : s.global) h = fnv1a_u64(h, b ? 1 : 0);
  h = fnv1a_u64(h, s.tuples.size());
  for (const ir::AccessTuple& t : s.tuples) {
    h = fnv1a_u64(fnv1a_u64(h, t.region), t.operands.size());
    for (const ir::ValueId v : t.operands) h = fnv1a_u64(h, v);
  }
  return h;
}

std::uint64_t hash_conflict_graph(const assign::ConflictGraph& cg,
                                  std::size_t value_count) {
  using support::fnv1a_u64;
  std::uint64_t h = fnv1a_u64(support::kFnvOffsetBasis, cg.vertex_count());
  for (Vertex v = 0; v < cg.vertex_count(); ++v) {
    h = fnv1a_u64(h, cg.value_of(v));
  }
  for (ir::ValueId id = 0; id < value_count; ++id) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(cg.vertex_of(id)));
  }
  for (Vertex v = 0; v < cg.vertex_count(); ++v) {
    const auto row = cg.neighbors(v);
    const auto conf = cg.conf_weights(v);
    h = fnv1a_u64(fnv1a_u64(h, row.size()), cg.conf_sum(v));
    for (std::size_t i = 0; i < row.size(); ++i) {
      h = fnv1a_u64(fnv1a_u64(h, row[i]), conf[i]);
    }
  }
  return h;
}

std::uint64_t hash_atoms(const std::vector<Atom>& atoms,
                         std::uint64_t h = support::kFnvOffsetBasis) {
  using support::fnv1a_u64;
  h = fnv1a_u64(h, atoms.size());
  for (const Atom& a : atoms) {
    h = fnv1a_u64(h, a.vertices.size());
    for (const Vertex v : a.vertices) h = fnv1a_u64(h, v);
    h = fnv1a_u64(h, a.separator.size());
    for (const Vertex v : a.separator) h = fnv1a_u64(h, v);
  }
  return h;
}

struct NamedStream {
  const char* name;
  ir::AccessStream stream;
};

// The six paper programs (STOR1) followed by the two large streams.
const std::vector<NamedStream>& graph_inputs() {
  static const std::vector<NamedStream> inputs = [] {
    std::vector<NamedStream> out;
    for (const char* name :
         {"TAYLOR1", "TAYLOR2", "EXACT", "FFT", "SORT", "COLOR"}) {
      out.push_back({name, paper_stream(workloads::workload(name))});
    }
    out.push_back({"syn_monolithic", syn_monolithic()});
    out.push_back({"syn_modular", syn_modular()});
    return out;
  }();
  return inputs;
}

TEST(FrontHalfGolden, ParseRoundTrip) {
  const struct {
    const char* name;
    ir::AccessStream stream;
    std::uint64_t pin;
  } kPins[] = {
      {"syn_monolithic", syn_monolithic(), 0xa7de5db2bde63a93ULL},
      {"syn_modular", syn_modular(), 0xa07795ccf2f5ab1aULL},
      {"service edit base", edit_base(), 0x8d9c5f35a7af6f6bULL},
  };
  for (const auto& p : kPins) {
    const ir::AccessStream parsed =
        ir::parse_stream(ir::format_stream(p.stream));
    EXPECT_EQ(hash_stream(parsed), hash_stream(p.stream)) << p.name;
    EXPECT_EQ(hash_stream(parsed), p.pin) << p.name;
  }
}

TEST(FrontHalfGolden, ConflictGraphs) {
  const std::uint64_t kPins[] = {
      0xd18ea074fe0a4adaULL,  // TAYLOR1
      0x0b10d7df24e898a5ULL,  // TAYLOR2
      0xa52d13afe33425c9ULL,  // EXACT
      0x31ba0673279c67bfULL,  // FFT
      0x9c158695c80d6d03ULL,  // SORT
      0x2fdadfdd9dcf12acULL,  // COLOR
      0xf0892c88084b5c11ULL,  // syn_monolithic
      0xd94a17f07b70b041ULL,  // syn_modular
  };
  const auto& inputs = graph_inputs();
  ASSERT_EQ(inputs.size(), std::size(kPins));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto cg = assign::ConflictGraph::build(inputs[i].stream);
    EXPECT_EQ(hash_conflict_graph(cg, inputs[i].stream.value_count), kPins[i])
        << inputs[i].name;
  }
}

TEST(FrontHalfGolden, Atoms) {
  const std::uint64_t kPins[] = {
      0x6d8b43e455965b05ULL,  // TAYLOR1
      0x07d5f15a2107a298ULL,  // TAYLOR2
      0x944cb3f9517467fbULL,  // EXACT
      0x2d9b59c89ff5946fULL,  // FFT
      0x7d4fd54ecd9becedULL,  // SORT
      0xe1dccdc2c57f3307ULL,  // COLOR
      0xda91262ddb8a1e85ULL,  // syn_monolithic
      0x82536390c8df2862ULL,  // syn_modular
  };
  const auto& inputs = graph_inputs();
  ASSERT_EQ(inputs.size(), std::size(kPins));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto cg = assign::ConflictGraph::build(inputs[i].stream);
    EXPECT_EQ(hash_atoms(decompose_by_clique_separators(cg.graph())), kPins[i])
        << inputs[i].name;
  }
}

TEST(FrontHalfGolden, SeededGraphAtoms) {
  support::SplitMix64 rng(kSeededGraphSeed);
  std::uint64_t h = support::kFnvOffsetBasis;
  for (std::size_t i = 0; i < kSeededGraphs; ++i) {
    h = hash_atoms(decompose_by_clique_separators(seeded_graph(i, rng)), h);
  }
  EXPECT_EQ(h, 0xd5efd24c6092578bULL);
}

TEST(FrontHalfGolden, LargeStreamAssign) {
  assign::AssignOptions o;
  o.module_count = 8;
  o.strategy = assign::Strategy::kStor1;
  o.method = assign::DupMethod::kHittingSet;
  const struct {
    const char* name;
    ir::AccessStream stream;
    std::uint64_t pin;
  } kPins[] = {
      {"syn_monolithic", syn_monolithic(), 0x3bd7fd7865a1a4c4ULL},
      {"syn_modular", syn_modular(), 0xd28bd4993b52d86bULL},
      // The same generator under another seed: a second monolithic draw.
      {"syn_large", locality_stream(0xabc3), 0x091507176fb8847fULL},
  };
  for (const auto& p : kPins) {
    const assign::AssignResult r = assign::assign_modules(p.stream, o);
    std::uint64_t h = support::fnv1a_u64(support::kFnvOffsetBasis,
                                         r.placement.size());
    for (const auto m : r.placement) h = support::fnv1a_u64(h, m);
    h = support::fnv1a_u64(h, r.stats.total_copies);
    EXPECT_EQ(h, p.pin) << p.name;
  }
}

}  // namespace
}  // namespace parmem::graph
