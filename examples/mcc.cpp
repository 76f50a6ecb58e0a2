// mcc — the MC compiler driver, as a command-line tool.
//
//   build/examples/mcc FILE.mc [options]
//   build/examples/mcc --workload FFT [options]
//
// Options:
//   --strategy STOR1|STOR2|STOR3   allocation strategy (default STOR1)
//   --method bt|hs                 duplication method (default hs)
//   -k N                           memory modules (default 8)
//   --fu N                         functional units (default 8)
//   --rename                       apply the renaming extension
//   --dump-tac / --dump-liw        print intermediate code
//   --dump-dot                     print the conflict graph in DOT syntax
//   --emit-stream                  print the access stream (stream_io format,
//                                  consumable by examples/assign_stream)
//   --run                          execute and print program output + cycles
//   --trace FILE.json              write a Chrome trace-event file of the
//                                  compile (+ run) — load it in Perfetto or
//                                  chrome://tracing
//   --stats                        print the phase-time summary and counter
//                                  tables after compiling
//   --deadline-ms N                wall-clock compile budget; on exhaustion
//                                  the assignment degrades down the tier
//                                  ladder instead of running long
//   --max-steps N                  cooperative step budget (deterministic
//                                  degradation)
//   --incremental                  incremental recompilation against a
//                                  persistent atom cache (default dir
//                                  .parmem-atom-cache): a conflict graph of
//                                  unchanged structure reuses its journaled
//                                  clique-separator decomposition; output is
//                                  byte-identical to a from-scratch compile
//                                  (DESIGN.md §13)
//   --atom-cache DIR               atom-cache journal directory (implies
//                                  --incremental)
//
// Exit codes: 0 compiled at full effort; 1 user error (bad source/flags);
// 2 internal error; 3 compiled, but the budget forced a degraded tier
// (details on stderr).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/pipeline.h"
#include "cache/atom_cache.h"
#include "graph/dot.h"
#include "ir/stream_io.h"
#include "telemetry/export.h"
#include "telemetry/session.h"
#include "workloads/workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mcc FILE.mc | --workload NAME  [--strategy STORn] "
               "[--method bt|hs] [-k N] [--fu N] [--rename] [--dump-tac] "
               "[--dump-liw] [--run] [--trace FILE.json] "
               "[--stats] [--deadline-ms N] [--max-steps N] "
               "[--incremental] [--atom-cache DIR]\n");
  return 1;
}

int run_mcc(int argc, char** argv) {
  using namespace parmem;

  std::string source;
  std::string source_name;
  analysis::PipelineOptions opts;
  opts.sched.fu_count = 8;
  opts.sched.module_count = 8;
  opts.assign.module_count = 8;
  bool dump_tac = false, dump_liw = false, dump_dot = false,
       emit_stream = false, run = false, stats = false;
  std::string trace_path;
  bool incremental = false;
  std::string atom_cache_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw support::UserError("missing value after " + arg);
      }
      return argv[++i];
    };
    const auto next_count = [&]() -> std::size_t {
      const char* text = next();
      try {
        return static_cast<std::size_t>(std::stoull(text));
      } catch (const std::exception&) {
        throw support::UserError("invalid number for " + arg + ": '" +
                                 text + "'");
      }
    };
    if (arg == "--workload") {
      const auto& w = workloads::workload(next());
      source = w.source;
      source_name = w.name;
    } else if (arg == "--strategy") {
      const std::string s = next();
      if (s == "STOR1") opts.assign.strategy = assign::Strategy::kStor1;
      else if (s == "STOR2") opts.assign.strategy = assign::Strategy::kStor2;
      else if (s == "STOR3") opts.assign.strategy = assign::Strategy::kStor3;
      else return usage();
    } else if (arg == "--method") {
      const std::string m = next();
      if (m == "bt") opts.assign.method = assign::DupMethod::kBacktracking;
      else if (m == "hs") opts.assign.method = assign::DupMethod::kHittingSet;
      else return usage();
    } else if (arg == "-k") {
      opts.assign.module_count = opts.sched.module_count = next_count();
    } else if (arg == "--fu") {
      opts.sched.fu_count = next_count();
    } else if (arg == "--rename") {
      opts.rename = true;
    } else if (arg == "--dump-tac") {
      dump_tac = true;
    } else if (arg == "--dump-liw") {
      dump_liw = true;
    } else if (arg == "--dump-dot") {
      dump_dot = true;
    } else if (arg == "--emit-stream") {
      emit_stream = true;
    } else if (arg == "--run") {
      run = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--deadline-ms") {
      opts.budget.deadline_ms = next_count();
    } else if (arg == "--max-steps") {
      opts.budget.max_steps = next_count();
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg == "--atom-cache") {
      atom_cache_dir = next();
      incremental = true;
    } else if (!arg.empty() && arg[0] != '-') {
      std::ifstream in(arg);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", arg.c_str());
        return 1;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      source = ss.str();
      source_name = arg;
    } else {
      return usage();
    }
  }
  if (source.empty()) return usage();
  opts.source_name = source_name;

  // The persistent atom cache carries clique-separator decompositions
  // across mcc invocations; a recompile after an edit that keeps the
  // conflict graph's structure skips MCS-M (byte-identical output).
  std::unique_ptr<cache::AtomCache> atom_cache;
  if (incremental) {
    if (atom_cache_dir.empty()) atom_cache_dir = ".parmem-atom-cache";
    atom_cache = std::make_unique<cache::AtomCache>(atom_cache_dir);
    opts.atom_memo = atom_cache.get();
  }

  const bool telemetry_requested = !trace_path.empty() || stats;
  if (telemetry_requested) {
    if (!telemetry::kEnabled) {
      std::fprintf(stderr,
                   "warning: built with -DPARMEM_TELEMETRY=OFF — the trace "
                   "and stats will be empty\n");
    }
    telemetry::TraceSession::global().start();
  }

  const auto c = analysis::compile_mc(source, opts);
  {
    if (dump_tac) std::printf("%s\n", c.tac.to_string().c_str());
    if (dump_liw) std::printf("%s\n", c.liw.to_string().c_str());
    if (emit_stream) {
      std::printf("%s", ir::format_stream(c.stream).c_str());
    }
    if (dump_dot) {
      const auto cg = assign::ConflictGraph::build(c.stream);
      graph::DotOptions d;
      d.graph_name = "conflicts";
      d.label = [&](graph::Vertex v) {
        return c.liw.values.info(cg.value_of(v)).name;
      };
      d.edge_label = [&](graph::Vertex u, graph::Vertex v) {
        return std::to_string(cg.conf(u, v));
      };
      std::printf("%s", graph::to_dot(cg.graph(), d).c_str());
    }

    // With --emit-stream, stdout carries only the machine-readable stream
    // (pipe it straight into examples/assign_stream).
    if (!emit_stream) {
      std::printf(
          "%s: %zu TAC ops -> %zu words (ILP %.2f), strategy %s/%s, k=%zu\n",
          source_name.c_str(), c.tac.instrs.size(), c.sched_stats.words,
          c.sched_stats.ilp(), assign::strategy_name(opts.assign.strategy),
          assign::dup_method_name(opts.assign.method),
          opts.assign.module_count);
      std::printf(
          "assignment: %zu values (=1: %zu, >1: %zu), %zu transfers "
          "scheduled, %s\n",
          c.assignment.stats.values_used, c.assignment.stats.single_copy,
          c.assignment.stats.multi_copy, c.transfer_stats.transfers,
          c.verify.ok() ? "conflict-free" : "RESIDUAL CONFLICTS");
      if (atom_cache != nullptr) {
        const auto& s = c.assignment.stats;
        atom_cache->flush();  // stores are write-behind: settle the counts
        const auto cs = atom_cache->stats();
        std::printf(
            "incremental: decomposition reused %llu computed %llu; cache %zu "
            "entries (%llu loaded) at %s\n",
            (unsigned long long)s.memo_decomp_hits,
            (unsigned long long)s.memo_decomp_misses, atom_cache->size(),
            (unsigned long long)cs.loaded, atom_cache_dir.c_str());
      }
    }

    if (run) {
      machine::MachineConfig cfg;
      cfg.module_count = opts.assign.module_count;
      cfg.fu_count = opts.sched.fu_count;
      const auto pair = analysis::run_and_check(c, cfg);
      for (const auto& line : pair.liw.output) {
        std::printf("%s\n", line.c_str());
      }
      std::printf("[%llu cycles LIW, %llu sequential, speedup %.2fx]\n",
                  static_cast<unsigned long long>(pair.liw.cycles),
                  static_cast<unsigned long long>(pair.sequential.cycles),
                  static_cast<double>(pair.sequential.cycles) /
                      static_cast<double>(pair.liw.cycles));
    }

    if (telemetry_requested) {
      telemetry::TraceSession::global().stop();
      const auto lanes = telemetry::TraceSession::global().take();
      if (!trace_path.empty()) {
        if (!telemetry::write_chrome_trace(
                trace_path, lanes, telemetry::TraceSession::global().start_ns())) {
          std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
          return 1;
        }
        std::fprintf(stderr, "trace written to %s (%zu lanes)\n",
                     trace_path.c_str(), lanes.size());
      }
      if (stats) {
        std::printf("%s\n", telemetry::phase_summary(lanes).c_str());
        std::printf("%s",
                    telemetry::counters_table(
                        telemetry::Registry::instance().snapshot())
                        .c_str());
      }
    }
  }
  if (c.degraded()) {
    std::fprintf(stderr,
                 "warning: compile budget exhausted — assignment degraded "
                 "to tier '%s' (verified: %s)\n",
                 assign::tier_name(c.assignment.tier),
                 c.verify.ok() ? "conflict-free" : "residual conflicts");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_mcc(argc, argv);
  } catch (const parmem::support::UserError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // InternalError carries the PARMEM_CHECK file:line in its message.
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 2;
  }
}
