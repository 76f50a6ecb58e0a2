// Thread-pool scaling of compile_batch: a batch of independent programs,
// one full compile per job (a single compile always runs on one thread).
// The batch is timed at 1/2/4/8 threads and the speedup over threads == 1
// is reported.
// Before timing, every configuration's result is checked bit-identical to
// the threads == 1 result — a thread count that changed the output would
// make the timing meaningless.
//
// NOTE: speedups are only observable when the host actually has spare
// cores; on a single-core machine every configuration degenerates to ~1.0x
// (the pool adds only scheduling overhead). EXPERIMENTS.md records the
// numbers together with the core count of the measurement host.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "workloads/workloads.h"

namespace {

using namespace parmem;

constexpr int kReps = 3;  // best-of to damp scheduler noise

template <typename F>
double best_of(F&& f) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

std::vector<std::string> batch_sources() {
  std::vector<std::string> sources;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& w : workloads::all_workloads()) {
      sources.push_back(w.source);
    }
  }
  return sources;
}

void bench_batch() {
  const auto sources = batch_sources();
  analysis::PipelineOptions opts;
  opts.unroll.max_trip = 16;
  opts.rename = true;

  std::printf("== compile_batch: %zu jobs ==\n", sources.size());
  opts.parallel.threads = 1;
  const auto reference = analysis::compile_batch(sources, opts);

  double base_ms = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    analysis::PipelineOptions o = opts;
    o.parallel.threads = threads;
    std::vector<analysis::CompileResult> got;
    const double ms = best_of([&] { got = analysis::compile_batch(sources, o); });

    bool identical = got.size() == reference.size();
    for (std::size_t i = 0; identical && i < got.size(); ++i) {
      identical = got[i].ok() && reference[i].ok() &&
                  got[i].compiled->assignment.placement ==
                      reference[i].compiled->assignment.placement &&
                  got[i].compiled->liw.to_string() ==
                      reference[i].compiled->liw.to_string();
    }
    if (!identical) {
      std::printf("threads=%zu: RESULT MISMATCH — bench aborted\n", threads);
      return;
    }
    if (threads == 1) base_ms = ms;
    std::printf("  threads=%zu  %8.2f ms   speedup %.2fx\n", threads, ms,
                base_ms > 0 ? base_ms / ms : 1.0);
  }
}

}  // namespace

int main() {
  std::printf("parallel_scaling: hardware_concurrency=%u\n\n",
              std::thread::hardware_concurrency());
  bench_batch();
  return 0;
}
