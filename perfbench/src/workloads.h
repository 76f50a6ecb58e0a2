// The three workloads. Each fills the report with every end-to-end metric
// (untraced run) or every per-layer metric (traced run); BENCHMARK.json and
// README.md name them and say which layer metric should move which
// end-to-end metric.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "assign/assigner.h"
#include "harness.h"
#include "ir/access.h"

namespace perfbench {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// service_mix arrival rate (requests per second).
  double service_rate = 50;
  /// Scratch directory for service_mix's journals (removed after the run).
  std::string work_dir = ".bench_build/work";
};

void run_paper_table1(const RunOptions& opts, Outcome& outcome, Report& report);
void run_stream_large(const RunOptions& opts, Outcome& outcome, Report& report);
void run_service_mix(const RunOptions& opts, Outcome& outcome, Report& report);

/// Every end-to-end / per-layer metric name, for the checks that a run
/// reports all of them.
const std::vector<std::string>& end_to_end_metrics();
const std::vector<std::string>& per_layer_metrics();

/// Reports 0 for every per-layer metric the workload does not exercise (a
/// layer that is never called does no work), so every traced run carries
/// the whole per-layer set.
void fill_unexercised_layers(Report& report);

/// Per-layer samples of a traced run: per-call times (reported as medians)
/// and per-round counts (reported as the round's sum; every round of a run
/// must produce the same counts, or the compiler is nondeterministic).
struct Layers {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, double> round;        // counts of the current round
  std::map<std::string, double> first_round;  // counts of the first round
  std::size_t rounds = 0;

  void time(const std::string& name, double ms_value) {
    ms[name].push_back(ms_value);
  }
  void add(const std::string& name, double count) { round[name] += count; }
  void max(const std::string& name, double count) {
    round[name] = std::max(round[name], count);
  }
  /// Closes a round; false when its counts differ from the first round's.
  bool end_round();
  /// Reports every timed layer as `<name>` (median, ms) and every count of
  /// the first round under its unit.
  void report(Report& report) const;
};

/// Sub-assign probes on a whole-stream (STOR1) view, each layer called on
/// its own: ConflictGraph::build, decompose_by_clique_separators, mcs_m and
/// color_conflict_graph. assign.color.ms is coloring self time (minus the
/// decomposition it runs first); assign.duplicate.ms is `assign_ms` minus
/// build and coloring; `idle_ms` accumulates the duplicate time of inputs
/// where no copy was inserted.
void probe_assign_layers(const parmem::ir::AccessStream& stream,
                         const parmem::assign::AssignOptions& opts,
                         const parmem::assign::AssignResult& result,
                         double assign_ms, Layers& layers, double& idle_ms);
/// assign.v_unassigned, assign.copies_inserted and
/// assign.duplication_rounds from AssignStats.
void count_assign_stats(const parmem::assign::AssignResult& result,
                        Layers& layers);

/// Per-compile metrics shared by the closed-loop workloads: compile_ms.*,
/// throughput_per_s, hit_ms.p50 and miss_ms.* (there is no cache on these
/// paths, so a repeated input costs a full cold compile: both equal the
/// compile latency). `per_input_ms` holds each input's samples, `all` every
/// sample in the order taken, whole rounds only. The p50 is the median over
/// rounds of each round's median compile: with equally weighted inputs of
/// different costs the pooled median sits in the gap between two inputs and
/// jumps with noise, the per-round median averages the two.
double median_of_rounds(const std::vector<double>& all, std::size_t round_size);
void report_closed_loop(const std::vector<std::vector<double>>& per_input_ms,
                        const std::vector<double>& all, Report& report);

}  // namespace perfbench
