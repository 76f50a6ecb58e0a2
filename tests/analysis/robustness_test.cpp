// Budgeted, fault-isolated compilation (DESIGN.md §11):
//
//  * a tripped Budget degrades the assignment down the AssignTier ladder —
//    the result stays structurally valid (every used value keeps a copy,
//    mutables are never duplicated) and the compile never hangs;
//  * a step-only budget degrades deterministically on the serial path;
//  * an untripped budget is byte-identical to the unbudgeted legacy path;
//  * compile_batch isolates per-source failures into CompileResult and
//    drains cleanly on cancellation;
//  * (fault-injection builds) every tagged site survives a timeout, a
//    bad_alloc, and an injected internal error without corrupting
//    neighbouring jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
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

TEST(Robustness, PoisonedBatchIsFaultIsolated) {
  // 50 sources, 5 poisoned in different frontend stages. The batch must
  // return 45 verified programs and 5 kUserError diagnostics — in order,
  // without throwing, at any thread count.
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

  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineOptions opts;
    opts.parallel.threads = threads;
    const std::vector<CompileResult> got = compile_batch(sources, opts);
    ASSERT_EQ(got.size(), sources.size());

    std::size_t ok = 0, user_errors = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool poisoned =
          std::any_of(poison.begin(), poison.end(),
                      [&](const auto& p) { return p.first == i; });
      if (poisoned) {
        EXPECT_EQ(got[i].status, CompileStatus::kUserError) << "job " << i;
        EXPECT_FALSE(got[i].compiled.has_value()) << "job " << i;
        EXPECT_FALSE(got[i].diagnostic.empty()) << "job " << i;
        ++user_errors;
      } else {
        ASSERT_TRUE(got[i].ok()) << "job " << i << ": " << got[i].diagnostic;
        EXPECT_TRUE(got[i].compiled->verify.ok()) << "job " << i;
        ++ok;
      }
    }
    EXPECT_EQ(ok, 45u);
    EXPECT_EQ(user_errors, 5u);
  }
}

TEST(Robustness, BatchCancelledUpFrontReportsEveryJobCancelled) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < 12; ++i) sources.push_back(valid_source(i));
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineOptions opts;
    opts.parallel.threads = threads;
    support::CancelToken token;
    token.cancel();
    const std::vector<CompileResult> got = compile_batch(sources, opts, &token);
    ASSERT_EQ(got.size(), sources.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, CompileStatus::kCancelled) << "job " << i;
      EXPECT_FALSE(got[i].ok()) << "job " << i;
      EXPECT_FALSE(got[i].compiled.has_value()) << "job " << i;
    }
  }
}

TEST(Robustness, BatchMidFlightCancellationDrainsCleanly) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < 64; ++i) sources.push_back(valid_source(i));
  PipelineOptions opts;
  opts.parallel.threads = 2;
  opts.unroll.max_trip = 8;

  // Deterministic handshake instead of a timed sleep: the canceller waits
  // until a job provably reports in-flight (BatchHooks::on_job_start), then
  // cancels — the cancel always lands mid-batch, never before the first job
  // or after the last.
  support::CancelToken token;
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  BatchHooks hooks;
  hooks.on_job_start = [&](std::size_t) {
    std::lock_guard<std::mutex> lk(mu);
    if (!started) {
      started = true;
      cv.notify_all();
    }
  };
  std::thread canceller([&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return started; });
    token.cancel();
  });
  const std::vector<CompileResult> got =
      compile_batch(sources, opts, &token, &hooks);
  canceller.join();

  ASSERT_EQ(got.size(), sources.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Only two legal outcomes: the job ran to completion (possibly degraded
    // by the cancel-tripped budget, but structurally valid), or it never
    // started. Nothing in between, and nothing throws.
    if (got[i].ok()) {
      ASSERT_TRUE(got[i].compiled.has_value()) << "job " << i;
      expect_well_formed(got[i].compiled->stream, got[i].compiled->assignment,
                         "job " + std::to_string(i));
    } else {
      EXPECT_EQ(got[i].status, CompileStatus::kCancelled) << "job " << i;
      EXPECT_FALSE(got[i].compiled.has_value()) << "job " << i;
    }
  }
}

TEST(Robustness, CompileStatusNamesAreStable) {
  EXPECT_STREQ(compile_status_name(CompileStatus::kOk), "ok");
  EXPECT_STREQ(compile_status_name(CompileStatus::kUserError), "user-error");
  EXPECT_STREQ(compile_status_name(CompileStatus::kInternalError),
               "internal-error");
  EXPECT_STREQ(compile_status_name(CompileStatus::kCancelled), "cancelled");
}

#if PARMEM_FAULT_INJECTION_ENABLED

// Seeded site sweep: discover the tagged fault sites from a recording run,
// then hit every site with every fault kind. A timeout must degrade but
// complete; bad_alloc / internal errors must be contained by compile_batch
// as kInternalError results that never corrupt neighbouring jobs.
class FaultSweep : public ::testing::Test {
 protected:
  void TearDown() override { support::FaultInjector::instance().reset(); }

  // Records one compile run as a one-job batch: at threads >= 2 the job
  // runs through the pool's task wrapper, which adds "pool.task".
  static std::vector<std::string> discover_sites(std::size_t threads,
                                                 bool speculate = false) {
    auto& injector = support::FaultInjector::instance();
    injector.reset();
    injector.set_recording(true);
    compile_batch({workloads::all_workloads().front().source},
                  sweep_options(threads, speculate));
    const auto sites = injector.sites();
    injector.reset();
    return sites;
  }

  static PipelineOptions sweep_options(std::size_t threads,
                                       bool speculate = false) {
    PipelineOptions opts;
    opts.parallel.threads = threads;
    opts.unroll.max_trip = 4;
    if (speculate) {
      // Threshold 1 routes every atom through the speculative tier, so the
      // "assign.speculate" fault point is guaranteed to fire.
      opts.parallel.speculate_threshold = 1;
      opts.parallel.speculate_chunk = 8;
    }
    return opts;
  }
};

TEST_F(FaultSweep, RecordingDiscoversTheTaggedSites) {
  const auto serial = discover_sites(0);
  EXPECT_FALSE(serial.empty());
  const auto has = [](const std::vector<std::string>& v, const char* s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  EXPECT_TRUE(has(serial, "pipeline.parse"));
  EXPECT_TRUE(has(serial, "pipeline.assign"));
  EXPECT_TRUE(has(serial, "pipeline.verify"));
  EXPECT_TRUE(has(serial, "assign.pass"));

  const auto pooled = discover_sites(2);
  EXPECT_TRUE(has(pooled, "pool.task"));

  const auto speculative = discover_sites(0, /*speculate=*/true);
  EXPECT_TRUE(has(speculative, "assign.speculate"));
  EXPECT_FALSE(has(pooled, "assign.speculate"))
      << "the speculative fault point fired with the tier disabled";

  // Registry sync: every site the pipeline actually fires must be listed in
  // known_sites(), or arming it (as the sweeps below do) would be rejected.
  const auto& known = support::FaultInjector::known_sites();
  for (const auto& sites : {serial, pooled, speculative}) {
    for (const std::string& site : sites) {
      EXPECT_TRUE(std::binary_search(known.begin(), known.end(), site))
          << "fired site '" << site << "' missing from known_sites()";
    }
  }
}

TEST_F(FaultSweep, TimeoutAtEverySiteDegradesButCompletes) {
  const auto& w = workloads::all_workloads().front();
  for (const std::string& site : discover_sites(0)) {
    SCOPED_TRACE(site);
    support::FaultInjector::instance().arm(site, support::FaultKind::kTimeout);
    Compiled c;
    ASSERT_NO_THROW(c = compile_mc(w.source, sweep_options(0)))
        << "a simulated timeout must never throw";
    expect_well_formed(c.stream, c.assignment, site);
    support::FaultInjector::instance().reset();
  }
}

TEST_F(FaultSweep, HardFaultsAreContainedByTheBatch) {
  // Serial batch: job order is deterministic, so the one-shot fault always
  // lands in job 0 and jobs 1..2 must come out untouched.
  std::vector<std::string> sources = {valid_source(0), valid_source(1),
                                      valid_source(2)};
  for (const auto kind : {support::FaultKind::kBadAlloc,
                          support::FaultKind::kInternalError}) {
    for (const std::string& site : discover_sites(0)) {
      SCOPED_TRACE(std::string(support::fault_kind_name(kind)) + " at " +
                   site);
      support::FaultInjector::instance().arm(site, kind);
      std::vector<CompileResult> got;
      ASSERT_NO_THROW(got = compile_batch(sources, sweep_options(0)));
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[0].status, CompileStatus::kInternalError);
      EXPECT_FALSE(got[0].compiled.has_value())
          << "a partial Compiled escaped through a fault";
      EXPECT_FALSE(got[0].diagnostic.empty());
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].ok()) << "job " << i << ": " << got[i].diagnostic;
        EXPECT_TRUE(got[i].compiled->verify.ok());
      }
      support::FaultInjector::instance().reset();
    }
  }
}

TEST_F(FaultSweep, SpeculativeTierSurvivesEverySeededFault) {
  // The speculative coloring path adds one fault point, "assign.speculate",
  // firing before any speculative state exists. A simulated timeout trips
  // the compile budget, so the tier's entry polls catch it and fall back to
  // the sequential heap (recorded as a degraded result, never a throw);
  // hard faults propagate out of compile_mc and must be contained by
  // compile_batch exactly like every other site.
  const auto& w = workloads::all_workloads().front();
  support::FaultInjector::instance().arm("assign.speculate",
                                         support::FaultKind::kTimeout);
  Compiled c;
  ASSERT_NO_THROW(c = compile_mc(w.source, sweep_options(0, true)));
  EXPECT_TRUE(c.assignment.budget_exhausted);
  EXPECT_GE(c.assignment.stats.speculative_fallbacks, 1u)
      << "the tripped budget must be recorded as a speculative fallback";
  expect_well_formed(c.stream, c.assignment, "speculate timeout");
  support::FaultInjector::instance().reset();

  std::vector<std::string> sources = {valid_source(0), valid_source(1),
                                      valid_source(2)};
  for (const auto kind : {support::FaultKind::kBadAlloc,
                          support::FaultKind::kInternalError}) {
    SCOPED_TRACE(support::fault_kind_name(kind));
    support::FaultInjector::instance().arm("assign.speculate", kind);
    // A serial batch runs the jobs in index order, so the one-shot fault
    // always lands in job 0.
    std::vector<CompileResult> got;
    ASSERT_NO_THROW(got = compile_batch(sources, sweep_options(0, true)));
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].status, CompileStatus::kInternalError);
    EXPECT_FALSE(got[0].compiled.has_value());
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << "job " << i << ": " << got[i].diagnostic;
      EXPECT_TRUE(got[i].compiled->verify.ok());
    }
    support::FaultInjector::instance().reset();
  }
}

TEST_F(FaultSweep, PoolInfrastructureFaultSurfacesAsInternalError) {
  // "pool.task" sits in the pool's own task wrapper — outside any job's
  // try block — so it models the pool itself failing; compile_batch must
  // surface it as a typed InternalError, never a hang or a crash.
  support::FaultInjector::instance().arm("pool.task",
                                         support::FaultKind::kInternalError);
  EXPECT_THROW(compile_batch({workloads::all_workloads().front().source},
                             sweep_options(2)),
               support::InternalError);
}

#else

TEST(FaultSweep, CompiledOut) {
  GTEST_SKIP() << "built with -DPARMEM_FAULT_INJECTION=OFF";
}

#endif  // PARMEM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace parmem::analysis
