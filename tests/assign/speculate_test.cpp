// Quality and degradation tests for the speculative coloring tier.
//
// Quality: the speculative tier repairs conflicts instead of resolving them
// in strict urgency order, so it may legitimately produce a slightly
// different placement than the sequential heap — but on the six paper
// workloads it must stay within one color and 5% of the copies the
// sequential heuristic inserts.
//
// Degradation: when the speculative tier's half-share step budget trips
// mid-repair, every piece of speculative state is discarded and the
// sequential path finishes under the remaining allowance. When that
// remainder suffices (AssignResult::tier lands exactly on
// kSpeculateFallback), the output must be byte-identical to the run that
// never speculated, and the assign.fallback_tier gauge must record the
// degradation. The test sweeps the step limit to find that window instead
// of hard-coding a charge count.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "result_hash.h"
#include "support/budget.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

#if PARMEM_TELEMETRY_ENABLED
#include "telemetry/registry.h"
#endif

namespace parmem::assign {
namespace {

ir::AccessStream paper_stream(const std::string& name) {
  for (const auto& w : workloads::all_workloads()) {
    if (w.name == name) {
      analysis::PipelineOptions o;
      o.sched.fu_count = 8;
      o.sched.module_count = 8;
      o.assign.module_count = 8;
      o.rename = true;
      return analysis::compile_mc(w.source, o).stream;
    }
  }
  ADD_FAILURE() << "unknown workload " << name;
  return {};
}

std::size_t colors_used(const AssignResult& r) {
  ModuleSet any = 0;
  for (const ModuleSet s : r.placement) any |= s;
  return static_cast<std::size_t>(std::popcount(any));
}

// ISSUE acceptance bound: on every paper workload the speculative tier may
// use at most one extra color and insert at most 5% extra copies compared
// to the sequential Fig. 4 heuristic.
TEST(SpeculativeQuality, PaperWorkloadsWithinBounds) {
  for (const char* name :
       {"TAYLOR1", "TAYLOR2", "EXACT", "FFT", "SORT", "COLOR"}) {
    const ir::AccessStream stream = paper_stream(name);

    AssignOptions seq;
    seq.module_count = 8;
    const AssignResult rs = assign_modules(stream, seq);

    AssignOptions spec = seq;
    spec.speculate_threshold = 1;
    spec.speculate_chunk = 16;
    const AssignResult rp = assign_modules(stream, spec);

    EXPECT_GE(rp.stats.speculative_rounds + rp.stats.speculative_fallbacks, 1u)
        << name << ": speculative tier never engaged";
    EXPECT_LE(colors_used(rp), colors_used(rs) + 1) << name;
    const std::size_t copies_seq = rs.stats.total_copies;
    EXPECT_LE(rp.stats.total_copies, copies_seq + (copies_seq + 19) / 20)
        << name << " (sequential inserted " << copies_seq << ")";
  }
}

// One budgeted speculative run vs. the never-speculated run under the same
// step limit. use_atoms is off so the stream is a single coloring problem:
// exactly one speculation attempt, whose half-share either survives or
// falls back once.
struct BudgetedPair {
  AssignResult spec;
  AssignResult plain;
};

BudgetedPair run_budgeted(const ir::AccessStream& stream, std::size_t k,
                          std::uint64_t max_steps) {
  BudgetedPair out;
  AssignOptions base;
  base.module_count = k;
  base.use_atoms = false;

  {
    AssignOptions o = base;  // pure sequential: tier disabled
    support::Budget b(support::BudgetSpec{0, max_steps});
    o.budget = &b;
    out.plain = assign_modules(stream, o);
  }
  {
    AssignOptions o = base;
    o.speculate_threshold = 1;
    o.speculate_chunk = 8;
    support::Budget b(support::BudgetSpec{0, max_steps});
    o.budget = &b;
    out.spec = assign_modules(stream, o);
  }
  return out;
}

TEST(SpeculativeBudget, ExhaustionFallsBackToSequentialOutput) {
  workloads::StreamGenOptions g;
  g.value_count = 192;
  g.tuple_count = 600;
  g.min_width = 2;
  g.max_width = 4;
  g.locality_window = 12;
  g.region_count = 4;
  support::SplitMix64 rng(0x5bec);
  const ir::AccessStream stream = workloads::random_stream(g, rng);

  bool exercised = false;
  for (const std::size_t k : {2u, 4u}) {
    for (std::uint64_t m = 16; m <= (1u << 20); m = m + m / 6 + 1) {
      const BudgetedPair p = run_budgeted(stream, k, m);

      // The interesting window: speculation tripped its half-share and fell
      // back, and the remaining budget carried the sequential path to a
      // full-quality finish on both sides.
      if (p.spec.tier != AssignTier::kSpeculateFallback ||
          p.plain.tier != AssignTier::kHeuristic) {
        continue;
      }
      exercised = true;
      EXPECT_TRUE(p.spec.budget_exhausted) << "k=" << k << " steps=" << m;
      EXPECT_GE(p.spec.stats.speculative_fallbacks, 1u);
      // Clean fallback: the discarded speculation leaves no trace in the
      // output — placement, removals, and stats match the run that never
      // speculated under the same limit.
      EXPECT_EQ(hash_result(p.spec), hash_result(p.plain))
          << "k=" << k << " steps=" << m;
      EXPECT_EQ(p.spec.placement, p.plain.placement)
          << "k=" << k << " steps=" << m;
#if PARMEM_TELEMETRY_ENABLED
      // run_budgeted runs the speculative side last, so the gauge holds its
      // tier.
      EXPECT_EQ(telemetry::Registry::instance().snapshot().value(
                    "assign.fallback_tier"),
                static_cast<std::int64_t>(AssignTier::kSpeculateFallback));
#endif
    }
  }
  EXPECT_TRUE(exercised)
      << "no step limit landed in the fallback window; the speculative "
         "cost model no longer out-charges the sequential path";
}

}  // namespace
}  // namespace parmem::assign
