#include "analysis/pipeline.h"

#include "frontend/parser.h"
#include "frontend/sema.h"
#include "lower/lower.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "support/fnv.h"
#include "telemetry/telemetry.h"

namespace parmem::analysis {

Compiled compile_mc(const std::string& source, const PipelineOptions& opts,
                    const support::CancelToken* cancel) {
  PARMEM_SPAN("pipeline.compile");
  const telemetry::Snapshot before =
      telemetry::Registry::instance().snapshot();
  Compiled c;

  // One budget for the whole compile. An unlimited spec with no cancel hook
  // passes nullptr downstream, so an unbudgeted compile runs exactly the
  // budget-free instruction stream (fault-injection builds keep the live budget so
  // injected timeouts have something to trip).
  support::Budget budget(opts.budget, cancel);
  support::Budget* bp = budget.limited() ? &budget : nullptr;
#if PARMEM_FAULT_INJECTION_ENABLED
  bp = &budget;
#endif

  frontend::Program ast;
  {
    PARMEM_SPAN("pipeline.parse");
    PARMEM_FAULT_POINT("pipeline.parse", bp);
    ast = frontend::parse(source, opts.source_name);
  }
  {
    PARMEM_SPAN("pipeline.sema");
    frontend::sema(ast);
  }
  {
    PARMEM_SPAN("pipeline.unroll");
    c.unroll_stats = frontend::unroll_loops(ast, opts.unroll);
  }
  {
    PARMEM_SPAN("pipeline.lower");
    c.tac = lower::lower_program(ast, opts.lower);
    // Nothing reads the AST after lowering; tear it down inside this span
    // rather than after every stage has run.
    ast = frontend::Program{};
  }
  if (opts.rename) {
    PARMEM_SPAN("pipeline.rename");
    c.rename_stats = lower::rename_locals(c.tac);
  }
  if (opts.if_convert.max_ops > 0) {
    PARMEM_SPAN("pipeline.if_convert");
    c.if_convert_stats = lower::if_convert(c.tac, opts.if_convert);
  }
  if (opts.optimize) {
    PARMEM_SPAN("pipeline.optimize");
    c.opt_stats = lower::optimize(c.tac);
  }

  {
    PARMEM_SPAN("pipeline.schedule");
    PARMEM_FAULT_POINT("pipeline.schedule", bp);
    c.liw = sched::schedule(c.tac, opts.sched, &c.sched_stats);
  }
  {
    PARMEM_SPAN("pipeline.stream");
    c.stream = ir::AccessStream::from_liw(c.liw, opts.include_writes,
                                          opts.duplicate_mutables);
  }
  {
    PARMEM_SPAN("pipeline.assign");
    PARMEM_FAULT_POINT("pipeline.assign", bp);
    assign::AssignOptions assign_opts = opts.assign;
    assign_opts.budget = bp;
    assign_opts.memo_store = opts.atom_memo;
    c.assignment = assign::assign_modules(c.stream, assign_opts);
  }
  {
    // Every result — degraded tiers included — passes the same structural
    // verification; a budget trip can cost quality, never soundness.
    PARMEM_SPAN("pipeline.verify");
    PARMEM_FAULT_POINT("pipeline.verify", bp);
    c.verify = assign::verify_assignment(c.stream, c.assignment);
  }
  {
    PARMEM_SPAN("pipeline.transfer_sched");
    c.transfer_stats =
        sched::schedule_transfers(c.liw, c.assignment, opts.sched.fu_count);
  }
  PARMEM_COUNTER_ADD("pipeline.compiles", 1);
  PARMEM_COUNTER_ADD("sched.words", c.sched_stats.words);
  PARMEM_COUNTER_ADD("sched.transfers_scheduled", c.transfer_stats.transfers);
  PARMEM_COUNTER_ADD("sched.transfer_words_added",
                     c.transfer_stats.words_added);
  c.telemetry = telemetry::Registry::instance().snapshot().since(before);
  return c;
}

std::uint64_t compiled_fingerprint(const Compiled& compiled) {
  // Seeded with kFingerprintSeed, not the FNV offset basis: golden hashes
  // and journaled fingerprints pin the historical value.
  using support::fnv1a_u64;
  std::uint64_t h = support::fnv1a64(compiled.liw.to_string(),
                                     support::kFingerprintSeed);
  h = fnv1a_u64(h, compiled.assignment.module_count);
  for (const auto m : compiled.assignment.placement) h = fnv1a_u64(h, m);
  for (const bool b : compiled.assignment.removed) h = fnv1a_u64(h, b ? 1 : 0);
  return fnv1a_u64(h, static_cast<std::uint64_t>(compiled.assignment.tier));
}

ExecutionPair run_and_check(const Compiled& compiled,
                            const machine::MachineConfig& config) {
  ExecutionPair pair;
  pair.liw = machine::run_liw(compiled.liw, compiled.assignment, config);
  pair.sequential = machine::run_sequential(compiled.tac, config);
  PARMEM_CHECK(pair.liw.output == pair.sequential.output,
               "LIW output diverges from the sequential reference for '" +
                   compiled.tac.name + "'");
  return pair;
}

}  // namespace parmem::analysis
