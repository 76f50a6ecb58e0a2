// Budgeted, fault-isolated compilation (DESIGN.md §11):
//
//  * a tripped Budget degrades the assignment down the AssignTier ladder —
//    the result stays structurally valid (every used value keeps a copy,
//    mutables are never duplicated) and the compile never hangs;
//  * a step-only budget degrades deterministically on the serial path;
//  * an untripped budget is byte-identical to the unbudgeted legacy path;
//  * a compile that throws leaves nothing behind: the next compile is
//    clean, and a cancelled token degrades a compile instead of failing it;
//  * (fault-injection builds) every tagged site survives a timeout, and a
//    bad_alloc or an injected internal error surfaces as a typed throw that
//    leaves the next compile clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <new>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "assign/verify.h"
#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::analysis {
namespace {

using assign::AssignOptions;
using assign::AssignResult;
using assign::AssignTier;

/// Degraded results may keep residual conflicts (kResidual accepts them),
/// but the structural invariants must hold at every tier: every accessed
/// value has >= 1 copy and mutables are never duplicated.
void expect_well_formed(const ir::AccessStream& stream,
                        const AssignResult& r, const std::string& label) {
  const auto report = assign::verify_assignment(stream, r);
  EXPECT_TRUE(report.missing_values.empty())
      << label << ": " << report.missing_values.size()
      << " values lost every copy";
  EXPECT_TRUE(report.illegal_duplicates.empty())
      << label << ": " << report.illegal_duplicates.size()
      << " mutable values were duplicated";
}

ir::AccessStream hostile_stream(std::uint64_t seed, std::size_t values,
                                std::size_t tuples) {
  support::SplitMix64 rng(seed);
  workloads::StreamGenOptions g;
  g.value_count = values;
  g.tuple_count = tuples;
  g.min_width = 2;
  g.max_width = 4;
  g.locality_window = 16;
  g.region_count = 4;
  return workloads::random_stream(g, rng);
}

TEST(Robustness, StepBudgetDegradesDeterministicallyAndStaysWellFormed) {
  const ir::AccessStream stream = hostile_stream(0xabc1, 256, 1024);
  AssignOptions o;
  o.module_count = 4;

  const auto run = [&] {
    support::BudgetSpec spec;
    spec.max_steps = 500;
    support::Budget b(spec);
    AssignOptions bo = o;
    bo.budget = &b;
    return assign::assign_modules(stream, bo);
  };

  const AssignResult first = run();
  EXPECT_TRUE(first.budget_exhausted);
  EXPECT_GT(first.tier, AssignTier::kHeuristic)
      << "an exhausted budget must be recorded as a degraded tier";
  expect_well_formed(stream, first, "step-budget run");

  // Step-only budgets trip at a point determined by the charge stream
  // alone, so the degraded result is reproducible bit for bit.
  const AssignResult second = run();
  EXPECT_EQ(first.placement, second.placement);
  EXPECT_EQ(first.removed, second.removed);
  EXPECT_EQ(first.tier, second.tier);
  EXPECT_EQ(first.stats.total_copies, second.stats.total_copies);
}

TEST(Robustness, UntrippedBudgetMatchesUnlimitedBitForBit) {
  const ir::AccessStream stream = hostile_stream(0xabc2, 128, 512);
  AssignOptions o;
  o.module_count = 4;
  const AssignResult unlimited = assign::assign_modules(stream, o);

  support::BudgetSpec spec;
  spec.max_steps = std::uint64_t{1} << 50;  // generous: never trips
  support::Budget b(spec);
  AssignOptions bo = o;
  bo.budget = &b;
  const AssignResult budgeted = assign::assign_modules(stream, bo);

  EXPECT_FALSE(budgeted.budget_exhausted);
  EXPECT_EQ(budgeted.tier, AssignTier::kHeuristic);
  EXPECT_EQ(unlimited.placement, budgeted.placement);
  EXPECT_EQ(unlimited.removed, budgeted.removed);
  EXPECT_EQ(unlimited.stats.total_copies, budgeted.stats.total_copies);
  EXPECT_GT(b.steps_used(), 0u) << "the budgeted path never charged";
}

TEST(Robustness, ExpiredDeadlineFallsBackWithoutHanging) {
  // A deadline that is already past when assignment starts: the very first
  // poll trips, so every tier degrades — and the call must still return a
  // well-formed result promptly instead of running the full search.
  const ir::AccessStream stream = hostile_stream(0xabc3, 2048, 8192);
  support::BudgetSpec spec;
  spec.deadline_ms = 1;
  support::Budget b(spec);
  // Deterministic expiry wait: spin until the budget itself reports the
  // trip rather than sleeping a fixed interval, so the "already expired on
  // entry" premise holds however slowly TSan schedules this thread.
  while (b.poll()) std::this_thread::yield();

  AssignOptions o;
  o.module_count = 4;
  o.budget = &b;
  const auto t0 = std::chrono::steady_clock::now();
  const AssignResult r = assign::assign_modules(stream, o);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_GT(r.tier, AssignTier::kHeuristic);
  expect_well_formed(stream, r, "expired-deadline run");
  // Generous bound for CI noise; the point is "milliseconds, not the
  // unbounded search" — the unbudgeted assignment of this stream does
  // orders of magnitude more work.
  EXPECT_LT(elapsed.count(), 10'000);
}

TEST(Robustness, HostileExactAttemptRespectsTheDeadline) {
  // A dense stream small enough to qualify for the exact tier but far too
  // hard to solve exactly: the attempt must abandon within the deadline's
  // half-share and fall back to the heuristic tiers with time to spare.
  support::SplitMix64 rng(0xabc4);
  workloads::StreamGenOptions g;
  g.value_count = 24;
  g.tuple_count = 600;
  g.min_width = 3;
  g.max_width = 3;  // == module_count, so the instance stays feasible
  const ir::AccessStream stream = workloads::random_stream(g, rng);

  support::BudgetSpec spec;
  spec.deadline_ms = 500;
  support::Budget b(spec);
  AssignOptions o;
  o.module_count = 3;
  o.budget = &b;
  o.try_exact = true;
  o.exact_value_limit = 64;
  o.exact_node_budget = std::uint64_t{1} << 62;  // only the deadline stops it

  const auto t0 = std::chrono::steady_clock::now();
  const AssignResult r = assign::assign_modules(stream, o);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  EXPECT_LT(elapsed.count(), 10'000) << "deadline did not stop the search";
  expect_well_formed(stream, r, "hostile exact attempt");
  if (r.tier == AssignTier::kExact) {
    // The solver got lucky within its half-share; then it must be exact.
    EXPECT_TRUE(assign::verify_assignment(stream, r).ok());
  } else {
    // The normal outcome: the attempt burned its share and the heuristic
    // ladder finished the job with the remaining budget.
    EXPECT_TRUE(r.budget_exhausted);
  }
}

TEST(Robustness, UnresolvableWideTupleHonoursTheDeadline) {
  // 24 mutable operands at k = 20: no placement can resolve the tuple, so
  // it still conflicts in every hitting-set round, and its operand
  // combinations of sizes 3..20 (about 16 M) are enumerated. Unbudgeted
  // that takes seconds; under a deadline the enumeration itself must stop.
  std::vector<ir::ValueId> wide;
  for (ir::ValueId v = 0; v < 24; ++v) wide.push_back(v);
  ir::AccessStream stream = ir::AccessStream::from_tuples(24, {wide});
  stream.duplicatable.assign(24, false);

  support::BudgetSpec spec;
  spec.deadline_ms = 50;
  support::Budget b(spec);
  AssignOptions o;
  o.module_count = 20;
  o.method = assign::DupMethod::kHittingSet;
  o.budget = &b;

  const auto t0 = std::chrono::steady_clock::now();
  const AssignResult r = assign::assign_modules(stream, o);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_LT(elapsed, std::chrono::milliseconds(50 + 1000));
  EXPECT_TRUE(r.budget_exhausted);
  expect_well_formed(stream, r, "unresolvable wide tuple");
}

TEST(Robustness, TryExactOnTinyStreamRecordsTheExactTier) {
  ir::AccessStream s;
  s.value_count = 6;
  s.duplicatable.assign(6, true);
  s.global.assign(6, false);
  const auto add = [&](std::vector<ir::ValueId> ops) {
    ir::AccessTuple t;
    t.operands = std::move(ops);
    s.tuples.push_back(std::move(t));
  };
  add({0, 1, 2});
  add({1, 2, 3});
  add({3, 4, 5});
  add({0, 3, 5});
  add({2, 4, 5});

  AssignOptions o;
  o.module_count = 4;
  o.try_exact = true;
  const AssignResult r = assign::assign_modules(s, o);
  EXPECT_EQ(r.tier, AssignTier::kExact);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_TRUE(assign::verify_assignment(s, r).ok());
}

TEST(Robustness, PipelineStepBudgetDegradesDeterministically) {
  PipelineOptions opts;
  opts.unroll.max_trip = 8;
  opts.budget.max_steps = 1;  // trips on the first real charge

  const auto& w = workloads::all_workloads().front();
  const Compiled c1 = compile_mc(w.source, opts);
  EXPECT_TRUE(c1.assignment.budget_exhausted);
  EXPECT_TRUE(c1.degraded());
  EXPECT_GT(c1.assignment.tier, AssignTier::kHeuristic);
  expect_well_formed(c1.stream, c1.assignment, w.name);

  const Compiled c2 = compile_mc(w.source, opts);
  EXPECT_EQ(c1.assignment.placement, c2.assignment.placement);
  EXPECT_EQ(c1.assignment.tier, c2.assignment.tier);
  EXPECT_EQ(c1.liw.to_string(), c2.liw.to_string());
}

TEST(Robustness, PipelineUntrippedBudgetIsByteIdenticalToUnbudgeted) {
  for (const auto& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    PipelineOptions plain;
    plain.unroll.max_trip = 4;
    const Compiled reference = compile_mc(w.source, plain);

    PipelineOptions budgeted = plain;
    budgeted.budget.max_steps = std::uint64_t{1} << 50;
    budgeted.budget.deadline_ms = 1'000'000;
    const Compiled got = compile_mc(w.source, budgeted);

    EXPECT_FALSE(got.assignment.budget_exhausted);
    EXPECT_FALSE(got.degraded());
    EXPECT_EQ(reference.assignment.placement, got.assignment.placement);
    EXPECT_EQ(reference.assignment.removed, got.assignment.removed);
    EXPECT_EQ(reference.liw.to_string(), got.liw.to_string());
  }
}

std::string valid_source(std::size_t i) {
  return "func main() {\n"
         "  var a: int = " + std::to_string(i % 17) + ";\n"
         "  var b: int = a * 3 + 1;\n"
         "  var c: int = b - a;\n"
         "  print(a + b * c);\n"
         "}\n";
}

TEST(Robustness, FailedCompileLeavesTheNextCompileClean) {
  // 50 sources, 5 poisoned in different frontend stages. Each poisoned
  // compile throws UserError; the compile after it must match the same
  // source compiled before any failure, byte for byte.
  const std::vector<std::pair<std::size_t, std::string>> poison = {
      {3, "func main( {"},                               // parse error
      {11, "func main() { var x: int = ; }"},            // parse error
      {22, "func main() { print(no_such_name); }"},      // sema error
      {37, ""},                                          // empty input
      {49, "func main() { var x: real = 1e999999; }"},   // lex error
  };
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < 50; ++i) sources.push_back(valid_source(i));
  for (const auto& [at, src] : poison) sources[at] = src;

  const PipelineOptions opts;
  std::vector<std::uint64_t> reference;
  for (std::size_t i = 0; i < 50; ++i) {
    reference.push_back(
        compiled_fingerprint(compile_mc(valid_source(i), opts)));
  }
  std::size_t ok = 0, user_errors = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const bool poisoned =
        std::any_of(poison.begin(), poison.end(),
                    [&](const auto& p) { return p.first == i; });
    if (poisoned) {
      EXPECT_THROW(compile_mc(sources[i], opts), support::UserError)
          << "source " << i;
      ++user_errors;
    } else {
      const Compiled c = compile_mc(sources[i], opts);
      EXPECT_TRUE(c.verify.ok()) << "source " << i;
      EXPECT_EQ(compiled_fingerprint(c), reference[i]) << "source " << i;
      ++ok;
    }
  }
  EXPECT_EQ(ok, 45u);
  EXPECT_EQ(user_errors, 5u);
}

TEST(Robustness, PreCancelledTokenDegradesTheCompile) {
  const auto& w = workloads::all_workloads().front();
  PipelineOptions opts;
  opts.unroll.max_trip = 8;
  const Compiled reference = compile_mc(w.source, opts);

  support::CancelToken token;
  token.cancel();
  Compiled c;
  ASSERT_NO_THROW(c = compile_mc(w.source, opts, &token));
  EXPECT_TRUE(c.assignment.budget_exhausted);
  EXPECT_TRUE(c.degraded());
  expect_well_formed(c.stream, c.assignment, w.name);

  // The token belongs to that compile alone.
  const Compiled next = compile_mc(w.source, opts);
  EXPECT_FALSE(next.degraded());
  EXPECT_EQ(compiled_fingerprint(next), compiled_fingerprint(reference));
}

TEST(Robustness, CancelFromAnotherThreadLeavesAWellFormedCompile) {
  // The cancel lands at whatever point the compile has reached: it runs to
  // completion, degraded or not, and is structurally valid either way.
  PipelineOptions opts;
  opts.unroll.max_trip = 8;
  for (const auto& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    support::CancelToken token;
    std::thread canceller([&] { token.cancel(); });
    Compiled c;
    EXPECT_NO_THROW(c = compile_mc(w.source, opts, &token));
    canceller.join();
    expect_well_formed(c.stream, c.assignment, w.name);
  }
}

// The tier numbers are hashed into compiled_fingerprint(), which journaled
// result-cache entries are checked against, so neither names nor numbers
// may move. 2 stays unused.
TEST(Robustness, TierNamesAndNumbersAreStable) {
  const struct {
    AssignTier tier;
    int number;
    const char* name;
  } tiers[] = {
      {AssignTier::kExact, 0, "exact"},
      {AssignTier::kHeuristic, 1, "heuristic"},
      {AssignTier::kHittingSet, 3, "hitting-set"},
      {AssignTier::kBacktrackCap, 4, "backtrack-cap"},
      {AssignTier::kResidual, 5, "residual"},
  };
  for (const auto& t : tiers) {
    EXPECT_STREQ(assign::tier_name(t.tier), t.name);
    EXPECT_EQ(static_cast<int>(t.tier), t.number) << t.name;
  }
}

#if PARMEM_FAULT_INJECTION_ENABLED

// Seeded site sweep: discover the tagged fault sites from a recording run,
// then hit every site with every fault kind. A timeout must degrade but
// complete; bad_alloc / internal errors must surface from compile_mc as
// std::bad_alloc / InternalError and leave the next compile clean.
class FaultSweep : public ::testing::Test {
 protected:
  void TearDown() override { support::FaultInjector::instance().reset(); }

  // Records the sites one compile fires.
  static std::vector<std::string> discover_sites() {
    auto& injector = support::FaultInjector::instance();
    injector.reset();
    injector.set_recording(true);
    compile_mc(workloads::all_workloads().front().source, sweep_options());
    const auto sites = injector.sites();
    injector.reset();
    return sites;
  }

  static PipelineOptions sweep_options() {
    PipelineOptions opts;
    opts.unroll.max_trip = 4;
    return opts;
  }
};

TEST_F(FaultSweep, RecordingDiscoversTheTaggedSites) {
  const auto sites = discover_sites();
  EXPECT_FALSE(sites.empty());
  const auto has = [&](const char* s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  EXPECT_TRUE(has("pipeline.parse"));
  EXPECT_TRUE(has("pipeline.assign"));
  EXPECT_TRUE(has("pipeline.verify"));
  EXPECT_TRUE(has("assign.pass"));

  // Registry sync: every site the pipeline actually fires must be listed in
  // known_sites(), or arming it (as the sweeps below do) would be rejected.
  const auto& known = support::FaultInjector::known_sites();
  for (const std::string& site : sites) {
    EXPECT_TRUE(std::binary_search(known.begin(), known.end(), site))
        << "fired site '" << site << "' missing from known_sites()";
  }
}

TEST_F(FaultSweep, TimeoutAtEverySiteDegradesButCompletes) {
  const auto& w = workloads::all_workloads().front();
  for (const std::string& site : discover_sites()) {
    SCOPED_TRACE(site);
    support::FaultInjector::instance().arm(site, support::FaultKind::kTimeout);
    Compiled c;
    ASSERT_NO_THROW(c = compile_mc(w.source, sweep_options()))
        << "a simulated timeout must never throw";
    expect_well_formed(c.stream, c.assignment, site);
    support::FaultInjector::instance().reset();
  }
}

TEST_F(FaultSweep, HardFaultsLeaveTheNextCompileClean) {
  // The fault is one-shot, so it always lands in the first compile; the
  // two after it must match their fault-free compiles byte for byte.
  const std::vector<std::string> sources = {valid_source(0), valid_source(1),
                                            valid_source(2)};
  std::vector<std::uint64_t> reference;
  for (const std::string& src : sources) {
    reference.push_back(compiled_fingerprint(compile_mc(src, sweep_options())));
  }
  for (const auto kind : {support::FaultKind::kBadAlloc,
                          support::FaultKind::kInternalError}) {
    for (const std::string& site : discover_sites()) {
      SCOPED_TRACE(std::string(support::fault_kind_name(kind)) + " at " +
                   site);
      support::FaultInjector::instance().arm(site, kind);
      if (kind == support::FaultKind::kBadAlloc) {
        EXPECT_THROW(compile_mc(sources[0], sweep_options()), std::bad_alloc);
      } else {
        EXPECT_THROW(compile_mc(sources[0], sweep_options()),
                     support::InternalError);
      }
      for (std::size_t i = 1; i < sources.size(); ++i) {
        const Compiled c = compile_mc(sources[i], sweep_options());
        EXPECT_TRUE(c.verify.ok()) << "source " << i;
        EXPECT_EQ(compiled_fingerprint(c), reference[i]) << "source " << i;
      }
      support::FaultInjector::instance().reset();
    }
  }
}

#else

TEST(FaultSweep, CompiledOut) {
  GTEST_SKIP() << "built with -DPARMEM_FAULT_INJECTION=OFF";
}

#endif  // PARMEM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace parmem::analysis
