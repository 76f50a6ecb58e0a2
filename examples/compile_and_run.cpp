// Compile an MC program through the whole pipeline and watch each stage:
// TAC, packed long instruction words, conflict statistics, scheduled copy
// transfers, and finally a cycle-accurate run against the sequential
// reference.
//
// The tail of the demo batch-compiles the paper's workloads across a thread
// pool (ParallelConfig::threads), one compile per job.
//
//   build/examples/compile_and_run
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "workloads/workloads.h"

namespace {

const char* kProgram = R"mc(
# Dot product with a running maximum - scalar-heavy loop code.
func main() {
  array x: real[24];
  array y: real[24];
  var i: int;
  for i = 0 to 23 {
    x[i] = real(i) * 0.5;
    y[i] = real(23 - i) * 0.25;
  }
  var dot: real = 0.0;
  var best: real = -1.0;
  var besti: int = 0;
  for i = 0 to 23 {
    var term: real = x[i] * y[i];
    dot = dot + term;
    if (term > best) {
      best = term;
      besti = i;
    }
  }
  print(dot);
  print(best);
  print(besti);
}
)mc";

int run_demo() {
  using namespace parmem;

  analysis::PipelineOptions opts;
  opts.sched.fu_count = 8;
  opts.sched.module_count = 8;
  opts.assign.module_count = 8;

  const auto c = analysis::compile_mc(kProgram, opts);

  std::printf("== three-address code (%zu instructions) ==\n%s\n",
              c.tac.instrs.size(), c.tac.to_string().c_str());
  std::printf("== long instruction words ==\n%s\n", c.liw.to_string().c_str());

  std::printf("== module assignment ==\n");
  std::printf("values used: %zu (single copy %zu, multi copy %zu)\n",
              c.assignment.stats.values_used, c.assignment.stats.single_copy,
              c.assignment.stats.multi_copy);
  std::printf("removed during coloring: %zu; scheduled transfers: %zu "
              "(+%zu new words)\n",
              c.assignment.stats.unassigned_after_coloring,
              c.transfer_stats.transfers, c.transfer_stats.words_added);
  std::printf("verification: %s\n\n",
              c.verify.ok() ? "conflict-free" : "RESIDUAL CONFLICTS");

  machine::MachineConfig cfg;
  cfg.module_count = 8;
  const auto pair = analysis::run_and_check(c, cfg);
  std::printf("== execution ==\n");
  for (const auto& line : pair.liw.output) std::printf("out: %s\n", line.c_str());
  std::printf("LIW: %llu cycles over %llu words; sequential: %llu cycles "
              "(speedup %.2fx)\n",
              static_cast<unsigned long long>(pair.liw.cycles),
              static_cast<unsigned long long>(pair.liw.words_executed),
              static_cast<unsigned long long>(pair.sequential.cycles),
              static_cast<double>(pair.sequential.cycles) /
                  static_cast<double>(pair.liw.cycles));

  // The full RunResult counter block for the LIW run.
  const machine::RunResult& r = pair.liw;
  std::printf("\n== run counters (LIW) ==\n");
  std::printf("cycles: %llu  conflict words: %llu  "
              "memory transfer time: %llu\n",
              static_cast<unsigned long long>(r.cycles),
              static_cast<unsigned long long>(r.conflict_words),
              static_cast<unsigned long long>(r.memory_transfer_time));
  std::printf("scalar fetches: %llu  array accesses: %llu  "
              "transfers executed: %llu\n",
              static_cast<unsigned long long>(r.scalar_fetches),
              static_cast<unsigned long long>(r.array_accesses),
              static_cast<unsigned long long>(r.transfers_executed));
  std::printf("per-module accesses:");
  for (std::size_t m = 0; m < r.module_accesses.size(); ++m) {
    std::printf(" M%zu=%llu", m,
                static_cast<unsigned long long>(r.module_accesses[m]));
  }
  std::printf("\nmax-load histogram (load: words):");
  for (std::size_t i = 1; i < r.max_load_histogram.size(); ++i) {
    if (r.max_load_histogram[i] == 0) continue;
    std::printf(" %zu: %llu", i,
                static_cast<unsigned long long>(r.max_load_histogram[i]));
  }
  std::printf("\n");

  // Batch compilation: independent programs farmed across a pool.
  analysis::PipelineOptions par = opts;
  par.parallel.threads = 4;
  std::vector<std::string> sources;
  for (const auto& w : parmem::workloads::all_workloads()) {
    sources.push_back(w.source);
  }
  const auto batch = analysis::compile_batch(sources, par);
  std::printf("compile_batch: %zu workloads on %zu threads, all verified: %s\n",
              batch.size(), par.parallel.threads,
              [&] {
                for (const auto& b : batch) {
                  if (!b.ok() || !b.compiled->verify.ok()) return false;
                }
                return true;
              }()
                  ? "yes"
                  : "NO");
  return 0;
}

}  // namespace

int main() {
  try {
    return run_demo();
  } catch (const parmem::support::UserError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 2;
  }
}
