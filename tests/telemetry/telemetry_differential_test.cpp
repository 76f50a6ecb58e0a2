// Telemetry must observe, never perturb: compiling with a trace session
// active has to produce byte-identical pipeline output to compiling with
// telemetry quiet, alone and as compile_batch jobs on pool workers.
// The counter values attached to Compiled must also agree with the stats
// the pipeline already reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "telemetry/session.h"
#include "workloads/workloads.h"

namespace parmem {
namespace {

analysis::PipelineOptions base_options() {
  analysis::PipelineOptions opts;
  opts.sched.fu_count = 8;
  opts.sched.module_count = 8;
  opts.assign.module_count = 8;
  return opts;
}

/// Everything downstream consumers read from a compile, as one string.
std::string fingerprint(const analysis::Compiled& c) {
  std::string fp = c.liw.to_string();
  fp += '\n';
  for (const assign::ModuleSet m : c.assignment.placement) {
    fp += std::to_string(m);
    fp += ',';
  }
  fp += '\n';
  fp += std::to_string(c.assignment.stats.total_copies);
  fp += '|';
  fp += std::to_string(c.transfer_stats.transfers);
  fp += '|';
  fp += c.verify.ok() ? "ok" : "residual";
  return fp;
}

TEST(TelemetryDifferential, SessionOnOffIdenticalSerial) {
  for (const auto& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    const analysis::Compiled quiet =
        analysis::compile_mc(w.source, base_options());

    telemetry::TraceSession::global().start();
    const analysis::Compiled traced =
        analysis::compile_mc(w.source, base_options());
    telemetry::TraceSession::global().stop();
    telemetry::TraceSession::global().take();  // leave global state drained

    EXPECT_EQ(fingerprint(quiet), fingerprint(traced));
  }
}

// The traced run compiles every workload as a job of a 3-thread batch, so
// pool workers emit into their own sinks while the session is live.
TEST(TelemetryDifferential, SessionOnOffIdenticalParallel) {
  std::vector<std::string> sources;
  for (const auto& w : workloads::all_workloads()) sources.push_back(w.source);
  analysis::PipelineOptions opts = base_options();
  opts.parallel.threads = 3;

  telemetry::TraceSession::global().start();
  const auto traced = analysis::compile_batch(sources, opts);
  telemetry::TraceSession::global().stop();
  telemetry::TraceSession::global().take();

  ASSERT_EQ(traced.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(workloads::all_workloads()[i].name);
    ASSERT_TRUE(traced[i].ok()) << traced[i].diagnostic;
    EXPECT_EQ(fingerprint(analysis::compile_mc(sources[i], opts)),
              fingerprint(*traced[i].compiled));
  }
}

TEST(TelemetryDifferential, CompiledSnapshotMatchesPipelineStats) {
  if constexpr (!telemetry::kEnabled) {
    GTEST_SKIP() << "telemetry compiled out — Compiled.telemetry is empty";
  }
  for (const auto& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    const analysis::Compiled c =
        analysis::compile_mc(w.source, base_options());
    const telemetry::Snapshot& t = c.telemetry;
    const assign::AssignStats& s = c.assignment.stats;

    EXPECT_EQ(t.value("pipeline.compiles"), 1);
    EXPECT_EQ(t.value("sched.words"),
              static_cast<std::int64_t>(c.sched_stats.words));
    EXPECT_EQ(t.value("sched.transfers_scheduled"),
              static_cast<std::int64_t>(c.transfer_stats.transfers));
    EXPECT_EQ(t.value("assign.values_used"),
              static_cast<std::int64_t>(s.values_used));
    EXPECT_EQ(t.value("assign.copies_total"),
              static_cast<std::int64_t>(s.total_copies));
    EXPECT_EQ(t.value("assign.copies_inserted"),
              static_cast<std::int64_t>(s.total_copies -
                                        (s.single_copy + s.multi_copy)));
    EXPECT_EQ(t.value("assign.v_unassigned"),
              static_cast<std::int64_t>(s.unassigned_after_coloring));
    EXPECT_EQ(t.value("assign.residual_conflict_tuples"),
              static_cast<std::int64_t>(s.residual_conflict_tuples));
    // The colors-used gauge is bounded by the machine width and, with any
    // placement at all, is at least 1.
    if (s.values_used > 0) {
      EXPECT_GE(t.value("assign.colors_used"), 1);
      EXPECT_LE(t.value("assign.colors_used"), 8);
    }
    // Structural counters exist on every compile.
    EXPECT_TRUE(t.has("assign.conflict_edges"));
    EXPECT_TRUE(t.has("graph.mcsm.search_edges"));
  }
}

TEST(TelemetryDifferential, SnapshotEmptyWhenCompiledOut) {
  if constexpr (telemetry::kEnabled) {
    GTEST_SKIP() << "only meaningful with -DPARMEM_TELEMETRY=OFF";
  }
  const analysis::Compiled c = analysis::compile_mc(
      workloads::all_workloads().front().source, base_options());
  EXPECT_TRUE(c.telemetry.entries.empty());
}

}  // namespace
}  // namespace parmem
