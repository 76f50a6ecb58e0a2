// §2.1 run-time complexity: the coloring heuristic was "implemented with
// the running time of O((n+e) log (n+e))". This google-benchmark bench
// measures the heuristic across graph sizes and reports the measured
// complexity exponent (BigO on n+e).
//
// Read BM_ColoringNoAtoms for the published bound: it isolates the Fig. 4
// heuristic itself and fits (n+e)log(n+e) tightly. BM_ColoringHeuristic
// includes the clique-separator preprocessing, whose MCS-M triangulation is
// O(n·m·log n) (Tarjan's decomposition was always costlier than one
// coloring pass — its value is structural, bounding the subproblem size).
#include <benchmark/benchmark.h>

#include "assign/assigner.h"
#include "assign/color_heuristic.h"
#include "assign/conflict_graph.h"
#include "workloads/stream_gen.h"

namespace {

using namespace parmem;

ir::AccessStream make_stream(std::size_t values, std::size_t tuples,
                             std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  workloads::StreamGenOptions g;
  g.value_count = values;
  g.tuple_count = tuples;
  g.min_width = 3;
  g.max_width = 4;
  g.locality_window = 24;  // bounded degree: e grows linearly with n
  return workloads::random_stream(g, rng);
}

void BM_ColoringHeuristic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = make_stream(n, 3 * n, 99);
  const auto cg = assign::ConflictGraph::build(stream);
  const std::size_t edges = cg.graph().edge_count();
  for (auto _ : state) {
    auto result =
        assign::color_conflict_graph(cg, {.module_count = 4});
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(
      cg.vertex_count() + edges));
}

void BM_ColoringNoAtoms(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = make_stream(n, 3 * n, 99);
  const auto cg = assign::ConflictGraph::build(stream);
  for (auto _ : state) {
    auto result = assign::color_conflict_graph(
        cg, {.module_count = 4, .use_atoms = false});
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(
      cg.vertex_count() + cg.graph().edge_count()));
}

// The speculative tier (speculate.h) on the same no-atoms graphs. Compare
// against BM_ColoringNoAtoms at equal range: the per-chunk bucket-queue
// sweeps replace the global lazy heap.
void BM_ColoringSpeculative(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = make_stream(n, 3 * n, 99);
  const auto cg = assign::ConflictGraph::build(stream);
  for (auto _ : state) {
    auto result = assign::color_conflict_graph(
        cg, {.module_count = 4, .use_atoms = false, .speculate_threshold = 1});
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(
      cg.vertex_count() + cg.graph().edge_count()));
}

void BM_FullAssignment(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = make_stream(n, 3 * n, 123);
  for (auto _ : state) {
    assign::AssignOptions o;
    o.module_count = 4;
    auto result = assign::assign_modules(stream, o);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}

void BM_ConflictGraphBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stream = make_stream(n, 3 * n, 77);
  for (auto _ : state) {
    auto cg = assign::ConflictGraph::build(stream);
    benchmark::DoNotOptimize(cg);
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}

}  // namespace

BENCHMARK(BM_ColoringHeuristic)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_ColoringNoAtoms)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_ColoringSpeculative)
    ->RangeMultiplier(2)
    ->Range(128, 4096)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_FullAssignment)->RangeMultiplier(4)->Range(64, 1024);
BENCHMARK(BM_ConflictGraphBuild)->RangeMultiplier(4)->Range(64, 1024);
