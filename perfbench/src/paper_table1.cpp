// paper_table1: the 18 Table 1 cells (six paper programs x STOR1/2/3 at
// k = 8, hitting-set duplication) compiled from MC source in a closed loop
// on one thread, each round in a seed-shuffled order.
//
// Untraced run: analysis::compile_mc per cell, timed as a whole. Traced
// run: half the time untraced (for trace.overhead_ratio), half through the
// stage functions in compile_mc's order, each call timed from outside; the
// stage path must reproduce compile_mc's fingerprint on every cell.
#include <exception>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "assign/color_heuristic.h"
#include "assign/conflict_graph.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "graph/atoms.h"
#include "graph/mcsm.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace an = parmem::analysis;
namespace as = parmem::assign;

namespace {

/// What every compile of a cell must reproduce.
struct Reference {
  std::uint64_t fingerprint = 0;
  std::size_t copies = 0;
  std::size_t transfer_words = 0;
  std::uint64_t liw_cycles = 0;
};

parmem::machine::MachineConfig machine_config(const PaperCell& cell) {
  parmem::machine::MachineConfig cfg;
  cfg.module_count = cell.opts.assign.module_count;
  cfg.fu_count = cell.opts.sched.fu_count;
  return cfg;
}

/// Output checks of one compile (off the compile clock). Returns the
/// simulated LIW cycles, or 0 after recording a failure.
std::uint64_t check_compile(const PaperCell& cell, const an::Compiled& c,
                            const Reference* ref, Outcome& outcome) {
  if (!c.verify.ok() || c.assignment.stats.residual_conflict_tuples != 0) {
    outcome.fail(cell.name + ": residual conflicts after verify_assignment");
    return 0;
  }
  std::uint64_t cycles = 0;
  try {
    cycles = an::run_and_check(c, machine_config(cell)).liw.cycles;
  } catch (const std::exception& e) {
    outcome.fail(cell.name + ": " + e.what());
    return 0;
  }
  if (ref != nullptr &&
      (an::compiled_fingerprint(c) != ref->fingerprint ||
       c.assignment.stats.total_copies != ref->copies ||
       c.transfer_stats.words_added != ref->transfer_words ||
       cycles != ref->liw_cycles)) {
    outcome.fail(cell.name + ": output differs from the first compile");
    return 0;
  }
  return cycles;
}

/// Set-up: the cells plus one reference compile of each (the untimed
/// warm-up round every later compile is checked against).
std::vector<Reference> set_up(const std::vector<PaperCell>& cells,
                              Outcome& outcome) {
  std::vector<Reference> refs;
  for (const PaperCell& cell : cells) {
    const an::Compiled c = an::compile_mc(cell.source, cell.opts);
    Reference r;
    r.liw_cycles = check_compile(cell, c, nullptr, outcome);
    r.fingerprint = an::compiled_fingerprint(c);
    r.copies = c.assignment.stats.total_copies;
    r.transfer_words = c.transfer_stats.words_added;
    refs.push_back(r);
  }
  return refs;
}

/// compile_mc, stage by stage, each public call timed. Mirrors
/// analysis/pipeline.cpp for a run without budget, pool or memo store.
an::Compiled staged_compile(const PaperCell& cell, Layers& layers,
                            double& stage_sum_ms) {
  const an::PipelineOptions& opts = cell.opts;
  an::Compiled c;
  stage_sum_ms = 0;
  const auto timed = [&](const char* name, auto&& stage) {
    const Clock::time_point t0 = Clock::now();
    stage();
    const double ms = ms_since(t0);
    layers.time(name, ms);
    stage_sum_ms += ms;
  };
  parmem::frontend::Program ast;
  timed("pipeline.parse.ms",
        [&] { ast = parmem::frontend::parse(cell.source, opts.source_name); });
  timed("pipeline.sema.ms", [&] { parmem::frontend::sema(ast); });
  timed("pipeline.unroll.ms",
        [&] { c.unroll_stats = parmem::frontend::unroll_loops(ast, opts.unroll); });
  timed("pipeline.lower.ms",
        [&] { c.tac = parmem::lower::lower_program(ast, opts.lower); });
  if (opts.rename) {
    timed("pipeline.rename.ms",
          [&] { c.rename_stats = parmem::lower::rename_locals(c.tac); });
  }
  if (opts.if_convert.max_ops > 0) {
    timed("pipeline.if_convert.ms", [&] {
      c.if_convert_stats = parmem::lower::if_convert(c.tac, opts.if_convert);
    });
  }
  if (opts.optimize) {
    timed("pipeline.optimize.ms",
          [&] { c.opt_stats = parmem::lower::optimize(c.tac); });
  }
  timed("pipeline.schedule.ms", [&] {
    c.liw = parmem::sched::schedule(c.tac, opts.sched, &c.sched_stats);
  });
  timed("pipeline.stream.ms", [&] {
    c.stream = parmem::ir::AccessStream::from_liw(c.liw, opts.include_writes,
                                                  opts.duplicate_mutables);
  });
  timed("assign.total.ms", [&] {
    as::AssignOptions ao = opts.assign;
    ao.memo_store = opts.atom_memo;
    if (opts.parallel.speculate_threshold != 0) {
      ao.speculate_threshold = opts.parallel.speculate_threshold;
      ao.speculate_chunk = opts.parallel.speculate_chunk;
    }
    c.assignment = as::assign_modules(c.stream, ao);
  });
  timed("pipeline.verify.ms",
        [&] { c.verify = as::verify_assignment(c.stream, c.assignment); });
  timed("pipeline.transfer_sched.ms", [&] {
    c.transfer_stats = parmem::sched::schedule_transfers(
        c.liw, c.assignment, opts.sched.fu_count);
  });
  return c;
}

}  // namespace

/// Sub-assign probes on a whole-stream (STOR1) view: conflict-graph build,
/// clique-separator decomposition, MCS-M and Fig. 4 coloring, each called
/// on its own. Shared with stream_large.
void probe_assign_layers(const parmem::ir::AccessStream& stream,
                         const as::AssignOptions& opts,
                         const as::AssignResult& result, double assign_ms,
                         Layers& layers, double& idle_ms) {
  Clock::time_point t0 = Clock::now();
  const as::ConflictGraph cg = as::ConflictGraph::build(stream);
  const double build_ms = ms_since(t0);

  t0 = Clock::now();
  const auto atoms = parmem::graph::decompose_by_clique_separators(cg.graph());
  const double atoms_ms = ms_since(t0);

  t0 = Clock::now();
  const parmem::graph::Triangulation tri = parmem::graph::mcs_m(cg.graph());
  const double mcsm_ms = ms_since(t0);

  as::ColorOptions co;
  co.module_count = opts.module_count;
  co.use_atoms = opts.use_atoms;
  co.pick = opts.pick;
  t0 = Clock::now();
  [[maybe_unused]] const as::ColorResult colored = as::color_conflict_graph(cg, co);
  const double color_ms = ms_since(t0);

  // Differences of separately timed calls: each sample carries the noise of
  // two timings and may even be negative; the per-call median settles it.
  const double duplicate_ms = assign_ms - build_ms - color_ms;
  layers.time("assign.conflict_graph.ms", build_ms);
  layers.time("assign.atoms.ms", atoms_ms);
  layers.time("graph.mcsm.ms", mcsm_ms);
  // Self time: coloring minus the decomposition it runs first.
  layers.time("assign.color.ms", color_ms - atoms_ms);
  layers.time("assign.duplicate.ms", duplicate_ms);

  std::size_t largest = 0;
  for (const auto& a : atoms) largest = std::max(largest, a.vertices.size());
  const std::size_t inserted =
      result.stats.total_copies - result.stats.values_used;
  if (inserted == 0) idle_ms += std::max(0.0, duplicate_ms);
  layers.add("assign.conflict_edges", static_cast<double>(cg.graph().edge_count()));
  layers.add("assign.atom_count", static_cast<double>(atoms.size()));
  layers.max("assign.largest_atom", static_cast<double>(largest));
  layers.add("graph.mcsm.fill_edges", static_cast<double>(tri.fill.size()));
}

/// Whole-assignment counts, read from AssignStats.
void count_assign_stats(const as::AssignResult& result, Layers& layers) {
  layers.add("assign.v_unassigned",
             static_cast<double>(result.stats.unassigned_after_coloring));
  layers.add("assign.copies_inserted",
             static_cast<double>(result.stats.total_copies -
                                 result.stats.values_used));
  layers.add("assign.duplication_rounds",
             static_cast<double>(result.stats.duplication_rounds));
}

void run_paper_table1(const RunOptions& opts, Outcome& outcome,
                      Report& report) {
  std::vector<PaperCell> cells;
  std::vector<Reference> refs;
  std::vector<double> setup_s;
  Outcome setup_outcome;
  CpuRotation cpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cpus.next();
    const Clock::time_point t0 = Clock::now();
    cells = paper_cells();
    setup_outcome = Outcome{};
    refs = set_up(cells, setup_outcome);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  outcome.attempted += cells.size();
  for (const std::string& why : setup_outcome.failures) outcome.fail(why);
  std::size_t copies_per_round = 0;
  for (const Reference& r : refs) copies_per_round += r.copies;

  // Untraced closed loop (the whole run, or its first half when traced).
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<std::vector<double>> per_cell_ms(cells.size());
  std::vector<double> untraced_ms;  // every compile, in order
  std::uint64_t round = 0;
  const Clock::time_point loop_start = Clock::now();
  while (ms_since(loop_start) < untraced_s * 1000.0 || round == 0) {
    for (const std::size_t i : shuffled_order(cells.size(), opts.seed, round)) {
      cpus.next();
      const Clock::time_point t0 = Clock::now();
      const an::Compiled c = an::compile_mc(cells[i].source, cells[i].opts);
      const double ms = ms_since(t0);
      per_cell_ms[i].push_back(ms);
      untraced_ms.push_back(ms);
      ++outcome.attempted;
      check_compile(cells[i], c, &refs[i], outcome);
    }
    ++round;
  }

  if (!opts.trace) {
    report.set("setup_s", median(setup_s), "s");
    report_closed_loop(per_cell_ms, untraced_ms, report);
    report.set("copies_total", static_cast<double>(copies_per_round), "count");
    report.detail("rounds", static_cast<double>(round));
    return;
  }

  // Traced closed loop.
  Layers layers;
  std::vector<double> traced_ms;
  double stage_total_ms = 0;
  double traced_total_ms = 0;
  std::vector<double> idle_per_round;
  const Clock::time_point traced_start = Clock::now();
  for (std::uint64_t r = 0;
       ms_since(traced_start) < (opts.seconds - untraced_s) * 1000.0 || r == 0;
       ++r) {
    double idle_ms = 0;
    for (const std::size_t i : shuffled_order(cells.size(), opts.seed, round + r)) {
      const PaperCell& cell = cells[i];
      double stage_ms = 0;
      cpus.next();
      const Clock::time_point t0 = Clock::now();
      an::Compiled c = staged_compile(cell, layers, stage_ms);
      const double wall_ms = ms_since(t0);
      traced_ms.push_back(wall_ms);
      stage_total_ms += stage_ms;
      traced_total_ms += wall_ms;
      ++outcome.attempted;
      if (an::compiled_fingerprint(c) != refs[i].fingerprint) {
        outcome.fail(cell.name +
                     ": the stage-by-stage path no longer reproduces "
                     "compile_mc's fingerprint");
        continue;
      }
      if (check_compile(cell, c, &refs[i], outcome) == 0) continue;

      const double assign_ms = layers.ms["assign.total.ms"].back();
      if (cell.whole_stream()) {
        probe_assign_layers(c.stream, cell.opts.assign, c.assignment,
                            assign_ms, layers, idle_ms);
      }
      count_assign_stats(c.assignment, layers);
      layers.add("lower.tac_ops", static_cast<double>(c.tac.instrs.size()));
      layers.add("sched.words", static_cast<double>(c.sched_stats.words));
      layers.add("sched.transfer_words_added",
                 static_cast<double>(c.transfer_stats.words_added));

      const Clock::time_point m0 = Clock::now();
      const parmem::machine::RunResult run =
          parmem::machine::run_liw(c.liw, c.assignment, machine_config(cell));
      layers.time("machine.run_liw.ms", ms_since(m0));
      layers.add("machine.liw_cycles", static_cast<double>(run.cycles));
      layers.add("machine.conflict_words", static_cast<double>(run.conflict_words));
      layers.add("machine.memory_transfer_time",
                 static_cast<double>(run.memory_transfer_time));
    }
    idle_per_round.push_back(idle_ms);
    if (!layers.end_round()) {
      outcome.fail("paper_table1: per-round layer counts changed between rounds");
    }
  }
  layers.report(report);
  report.set("assign.duplicate.idle_ms", median(idle_per_round), "ms");
  report.set("trace.overhead_ratio", median(traced_ms) / median(untraced_ms),
             "ratio");
  report.set("pipeline.accounted_ratio", stage_total_ms / traced_total_ms,
             "ratio");
}

}  // namespace perfbench
