// perfbench — the parmem benchmark binary (run.py builds and drives it).
//
//   perfbench --workload paper_table1|stream_large|service_mix --seed N
//             --seconds S --trace 0|1 [--service-rate R] [--work-dir DIR]
//
// Prints a provenance line, a details line and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The metrics are every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exit codes: 0 ran (the result says whether outputs were correct);
// 2 bad arguments; 3 refused (fault-injection build); 4 internal error.
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_table1|stream_large|"
               "service_mix --seed N --seconds S --trace 0|1 "
               "[--service-rate R] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") opts.workload = value;
      else if (arg == "--seed") opts.seed = std::stoull(value);
      else if (arg == "--seconds") opts.seconds = std::stod(value);
      else if (arg == "--trace") opts.trace = std::stoi(value) != 0;
      else if (arg == "--service-rate") opts.service_rate = std::stod(value);
      else if (arg == "--work-dir") opts.work_dir = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (opts.seconds <= 0 || opts.service_rate <= 0) {
    return usage();
  }
  if (fault_injection_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run on a PARMEM_FAULT_INJECTION=ON "
                 "build: it keeps a live Budget on every compile and so "
                 "measures a different program\n");
    return 3;
  }

  Outcome outcome;
  Report report;
  try {
    if (opts.workload == "paper_table1") run_paper_table1(opts, outcome, report);
    else if (opts.workload == "stream_large") run_stream_large(opts, outcome, report);
    else if (opts.workload == "service_mix") run_service_mix(opts, outcome, report);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }

  // The result line carries exactly the declared metric set; anything else
  // a workload measured goes to the details line.
  if (opts.trace) fill_unexercised_layers(report);
  const auto& wanted = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  const std::set<std::string> names(wanted.begin(), wanted.end());
  Report result;
  for (const auto& [name, m] : report.metrics) {
    if (names.count(name) != 0) {
      result.metrics[name] = m;
    } else {
      report.detail(name, m.value);
    }
  }
  for (const std::string& name : wanted) {
    if (result.metrics.count(name) == 0) {
      std::fprintf(stderr, "perfbench: internal error: %s was not measured\n",
                   name.c_str());
      return 4;
    }
  }

  for (const std::string& why : outcome.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  std::printf("{\"provenance\": %s}\n", provenance_json(opts.seed).c_str());
  std::printf("%s\n", details_json(report).c_str());
  std::printf("%s\n", result_json(outcome, result).c_str());
  return 0;
}
