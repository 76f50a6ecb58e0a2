// Differential proof that batch compilation is deterministic: a compile
// always runs on one thread, and compile_batch farms whole compiles across
// a pool. At every batch width — with the jobs sharing one atom-memo store
// or not — each job must reproduce the per-source serial compile byte for
// byte: placements, removals, statistics, transfer schedules and LIW
// programs. The seeded assignment workloads check the same atom-task
// algorithm against verify_assignment and against a repeat run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "assign/verify.h"
#include "cache/atom_cache.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::analysis {
namespace {

using assign::AssignOptions;
using assign::AssignResult;

/// Full structural equality of two assignment results.
void expect_identical(const AssignResult& a, const AssignResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.module_count, b.module_count) << label;
  EXPECT_EQ(a.placement, b.placement) << label << ": placements differ";
  EXPECT_EQ(a.removed, b.removed) << label << ": removal sets differ";
  EXPECT_EQ(a.stats.values_used, b.stats.values_used) << label;
  EXPECT_EQ(a.stats.single_copy, b.stats.single_copy) << label;
  EXPECT_EQ(a.stats.multi_copy, b.stats.multi_copy) << label;
  EXPECT_EQ(a.stats.total_copies, b.stats.total_copies) << label;
  EXPECT_EQ(a.stats.unassigned_after_coloring,
            b.stats.unassigned_after_coloring)
      << label;
  EXPECT_EQ(a.stats.forced, b.stats.forced) << label;
  EXPECT_EQ(a.stats.residual_conflict_tuples,
            b.stats.residual_conflict_tuples)
      << label;
  EXPECT_EQ(a.stats.duplication_rounds, b.stats.duplication_rounds) << label;
}

// >= 50 seeded stream_gen workloads spanning module counts, strategies,
// duplication methods, locality (atom structure) and region shapes.
TEST(ParallelDifferential, FiftySeededWorkloadsMatchSerialBitForBit) {
  const std::size_t module_counts[] = {2, 4, 8};
  const assign::Strategy strategies[] = {assign::Strategy::kStor1,
                                         assign::Strategy::kStor2,
                                         assign::Strategy::kStor3};
  const assign::DupMethod methods[] = {assign::DupMethod::kHittingSet,
                                       assign::DupMethod::kBacktracking};

  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 54; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    support::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL);
    const std::size_t k = module_counts[seed % 3];
    workloads::StreamGenOptions g;
    g.value_count = 32 + rng.below(96);
    g.tuple_count = 64 + rng.below(192);
    g.min_width = 2;
    // Tuples wider than k can never be conflict-free, so cap the width to
    // keep verify_assignment a meaningful oracle.
    g.max_width = std::min(k, 2 + rng.below(4));
    g.region_count = 1 + rng.below(4);
    // Mostly small windows: clique-separator structure, many atoms.
    g.locality_window = rng.below(3) == 0 ? 0 : 8 + rng.below(24);
    const ir::AccessStream stream = workloads::random_stream(g, rng);

    AssignOptions o;
    o.module_count = k;
    o.strategy = strategies[(seed / 3) % 3];
    o.method = methods[seed % 2];
    o.seed = 0x5eedULL + seed;

    const AssignResult serial = assign::assign_modules(stream, o);
    expect_identical(serial, assign::assign_modules(stream, o), "repeat run");
    EXPECT_TRUE(assign::verify_assignment(stream, serial).ok());
    ++checked;
  }
  EXPECT_GE(checked, 50);
}

// Per-atom scratch (the frontier snapshot, the placement scratch) is
// refreshed only at the entries an atom reads. Alternating compiles of
// different sizes and module counts on one reused thread — with and
// without the speculative tier, which reads that scratch too — must
// reproduce a compile on a fresh thread, so no scratch may leak from one
// compile into the next.
TEST(ParallelDifferential, ReusedScratchMatchesFreshCompiles) {
  struct Case {
    ir::AccessStream stream;
    AssignOptions opts;
  };
  std::vector<Case> cases;
  for (const auto& [values, k] : {std::pair<std::size_t, std::size_t>{600, 8},
                                  {48, 2}, {200, 4}}) {
    support::SplitMix64 rng(values);
    workloads::StreamGenOptions g;
    g.value_count = values;
    g.tuple_count = values * 3;
    g.max_width = std::min<std::size_t>(k, 4);
    g.region_count = 3;
    g.locality_window = 12;
    Case c{workloads::random_stream(g, rng), {}};
    for (ir::ValueId v = 0; v < values; v += 5) c.stream.duplicatable[v] = false;
    c.opts.module_count = k;
    c.opts.strategy = assign::Strategy::kStor3;
    cases.push_back(std::move(c));
  }
  for (const std::size_t threshold : {0u, 1u}) {
    SCOPED_TRACE("speculate_threshold=" + std::to_string(threshold));
    std::vector<AssignResult> fresh(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      cases[i].opts.speculate_threshold = threshold;
      std::thread([&] {
        fresh[i] = assign::assign_modules(cases[i].stream, cases[i].opts);
      }).join();
    }
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        expect_identical(fresh[i],
                         assign::assign_modules(cases[i].stream, cases[i].opts),
                         "case " + std::to_string(i));
      }
    }
  }
}

// Whole-pipeline differential on the paper's six workloads: modules, copies
// and transfer schedules of a compile alone and of the same compile as a
// job of a 4-thread batch must agree.
TEST(ParallelDifferential, PipelineTransferSchedulesMatch) {
  PipelineOptions opts;
  opts.unroll.max_trip = 8;
  opts.rename = true;
  opts.parallel.threads = 4;
  std::vector<std::string> sources;
  for (const auto& w : workloads::all_workloads()) sources.push_back(w.source);
  const std::vector<CompileResult> batch = compile_batch(sources, opts);
  ASSERT_EQ(batch.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& name = workloads::all_workloads()[i].name;
    SCOPED_TRACE(name);
    ASSERT_TRUE(batch[i].ok()) << batch[i].diagnostic;
    const Compiled serial = compile_mc(sources[i], opts);
    const Compiled& par = *batch[i].compiled;

    expect_identical(serial.assignment, par.assignment, name);
    EXPECT_EQ(serial.transfer_stats.transfers, par.transfer_stats.transfers);
    EXPECT_EQ(serial.transfer_stats.words_added,
              par.transfer_stats.words_added);
    EXPECT_EQ(serial.transfer_stats.preloaded_copies,
              par.transfer_stats.preloaded_copies);
    EXPECT_EQ(serial.liw.to_string(), par.liw.to_string());
    EXPECT_TRUE(serial.verify.ok());
    EXPECT_TRUE(par.verify.ok());
  }
}

// compile_batch at several thread counts == the per-source serial compiles,
// in order, bit for bit — also when every job of the batch shares one
// atom-memo store, which concurrent jobs read and fill at once.
TEST(ParallelDifferential, BatchMatchesPerSourceSerialCompiles) {
  std::vector<std::string> sources;
  for (const auto& w : workloads::all_workloads()) sources.push_back(w.source);
  // Repeat to exercise queue contention beyond worker count.
  const std::vector<std::string> once = sources;
  sources.insert(sources.end(), once.begin(), once.end());

  PipelineOptions opts;
  opts.unroll.max_trip = 4;
  std::vector<Compiled> expected;
  for (const std::string& s : sources) expected.push_back(compile_mc(s, opts));

  for (const std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    for (const bool shared_memo : {false, true}) {
      cache::AtomCache store;
      PipelineOptions bopts = opts;
      bopts.parallel.threads = threads;
      if (shared_memo) bopts.atom_memo = &store;
      const std::vector<CompileResult> got = compile_batch(sources, bopts);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string label = "job " + std::to_string(i) + " at " +
                                  std::to_string(threads) + " threads" +
                                  (shared_memo ? ", shared memo" : "");
        ASSERT_TRUE(got[i].ok()) << label << ": " << got[i].diagnostic;
        expect_identical(expected[i].assignment, got[i].compiled->assignment,
                         label);
        EXPECT_EQ(expected[i].liw.to_string(),
                  got[i].compiled->liw.to_string())
            << label;
        EXPECT_EQ(compiled_fingerprint(expected[i]),
                  compiled_fingerprint(*got[i].compiled))
            << label;
      }
    }
  }
}

// parallel.threads sets only compile_batch's fan-out; a single compile
// runs on its caller's thread at 0, 1 and 8 alike.
TEST(ParallelDifferential, EveryThreadCountCompilesIdentically) {
  const auto& w = workloads::all_workloads().front();
  PipelineOptions opts;
  opts.parallel.threads = 0;
  const Compiled a = compile_mc(w.source, opts);
  for (const std::size_t threads : {1u, 8u}) {
    opts.parallel.threads = threads;
    const Compiled b = compile_mc(w.source, opts);
    const std::string label = "threads=" + std::to_string(threads);
    expect_identical(a.assignment, b.assignment, label);
    EXPECT_EQ(a.liw.to_string(), b.liw.to_string()) << label;
    EXPECT_EQ(compiled_fingerprint(a), compiled_fingerprint(b)) << label;
  }
}

}  // namespace
}  // namespace parmem::analysis
