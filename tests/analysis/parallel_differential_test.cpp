// Differential proof that compilation is deterministic: a compile runs on
// its calling thread and is a pure function of its source and options.
// Repeat compiles — on a reused thread, after other compiles, with or
// without a shared atom-memo store — must reproduce the first compile byte
// for byte: placements, removals, statistics, transfer schedules and LIW
// programs. The seeded assignment workloads check the same atom-task
// algorithm against verify_assignment and against a repeat run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
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
// different sizes and module counts on one reused thread must reproduce a
// compile on a fresh thread, so no scratch may leak from one compile into
// the next.
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
  std::vector<AssignResult> fresh(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
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

/// Compiles every source in order, once.
std::vector<Compiled> compile_all(const std::vector<std::string>& sources,
                                  const PipelineOptions& opts) {
  std::vector<Compiled> out;
  for (const std::string& s : sources) out.push_back(compile_mc(s, opts));
  return out;
}

std::vector<std::string> paper_sources() {
  std::vector<std::string> sources;
  for (const auto& w : workloads::all_workloads()) sources.push_back(w.source);
  return sources;
}

// Whole-pipeline differential on the paper's six workloads: modules, copies
// and transfer schedules of a first compile and of a repeat compile made
// after every other workload has run on the same thread must agree.
TEST(ParallelDifferential, PipelineTransferSchedulesMatch) {
  PipelineOptions opts;
  opts.unroll.max_trip = 8;
  opts.rename = true;
  const std::vector<std::string> sources = paper_sources();
  const std::vector<Compiled> first = compile_all(sources, opts);
  const std::vector<Compiled> again = compile_all(sources, opts);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::string& name = workloads::all_workloads()[i].name;
    SCOPED_TRACE(name);
    const Compiled& a = first[i];
    const Compiled& b = again[i];
    expect_identical(a.assignment, b.assignment, name);
    EXPECT_EQ(a.transfer_stats.transfers, b.transfer_stats.transfers);
    EXPECT_EQ(a.transfer_stats.words_added, b.transfer_stats.words_added);
    EXPECT_EQ(a.transfer_stats.preloaded_copies,
              b.transfer_stats.preloaded_copies);
    EXPECT_EQ(a.liw.to_string(), b.liw.to_string());
    EXPECT_TRUE(a.verify.ok());
    EXPECT_TRUE(b.verify.ok());
  }
}

// Repeat compiles == the first compiles, in order, bit for bit — also when
// every compile shares one atom-memo store, which the first copy of each
// source fills and the second reads.
TEST(ParallelDifferential, RepeatCompilesMatchFirstCompiles) {
  std::vector<std::string> sources = paper_sources();
  const std::vector<std::string> once = sources;
  sources.insert(sources.end(), once.begin(), once.end());

  PipelineOptions opts;
  opts.unroll.max_trip = 4;
  const std::vector<Compiled> expected = compile_all(sources, opts);

  for (const bool shared_memo : {false, true}) {
    cache::AtomCache store;
    PipelineOptions ropts = opts;
    if (shared_memo) ropts.atom_memo = &store;
    const std::vector<Compiled> got = compile_all(sources, ropts);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string label = "source " + std::to_string(i) +
                                (shared_memo ? ", shared memo" : "");
      expect_identical(expected[i].assignment, got[i].assignment, label);
      EXPECT_EQ(expected[i].liw.to_string(), got[i].liw.to_string()) << label;
      EXPECT_EQ(compiled_fingerprint(expected[i]), compiled_fingerprint(got[i]))
          << label;
    }
  }
}

// The ParallelConfig fields and AssignOptions::speculate_* are inert: a
// compile runs on its caller's thread and colours with the one sequential
// sweep whatever they hold.
TEST(ParallelDifferential, EveryThreadCountCompilesIdentically) {
  const auto& w = workloads::all_workloads().front();
  const PipelineOptions base;
  const Compiled a = compile_mc(w.source, base);
  std::vector<std::pair<std::string, PipelineOptions>> variants;
  for (const std::size_t threads : {1u, 8u}) {
    PipelineOptions o = base;
    o.parallel.threads = threads;
    variants.emplace_back("threads=" + std::to_string(threads), o);
  }
  PipelineOptions spec = base;
  spec.parallel.speculate_threshold = 1;
  spec.parallel.speculate_chunk = 16;
  spec.assign.speculate_threshold = 1;
  spec.assign.speculate_chunk = 16;
  variants.emplace_back("speculate_threshold=1", spec);
  for (const auto& [label, o] : variants) {
    const Compiled b = compile_mc(w.source, o);
    expect_identical(a.assignment, b.assignment, label);
    EXPECT_EQ(a.liw.to_string(), b.liw.to_string()) << label;
    EXPECT_EQ(compiled_fingerprint(a), compiled_fingerprint(b)) << label;
  }
}

}  // namespace
}  // namespace parmem::analysis
