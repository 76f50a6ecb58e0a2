// Trace exporters: Chrome trace-event JSON and plain-text summaries.
//
// The JSON form loads in chrome://tracing and Perfetto: one lane ("tid")
// per thread that emitted events, "X" complete events for spans, "C"
// counter samples (rendered as tracks), "i" instants, and thread_name
// metadata so each thread reads as a named lane.
//
// The text forms feed --stats and the tests: a per-span aggregate table
// (count / total / mean / max wall ms) and a name→value metric table, both
// rendered with support::TextTable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/session.h"

namespace parmem::telemetry {

/// Serializes lanes as a Chrome trace-event JSON document. Timestamps are
/// microseconds relative to `t0_ns` (pass TraceSession::start_ns()).
std::string to_chrome_trace(const std::vector<Lane>& lanes,
                            std::uint64_t t0_ns);

/// to_chrome_trace + write to `path`. Returns false when the file cannot
/// be opened.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Lane>& lanes, std::uint64_t t0_ns);

/// Order statistics over a set of durations — the one definition of
/// p50/p99/p999 shared by the phase summary and the service-load bench, so
/// a router SLO quoted from BENCH_service.json and one quoted from --stats
/// are the same number. Percentiles are nearest-rank: the smallest element
/// with at least p% of the sample at or below it (index ceil(p/100*N)-1 of
/// the sorted sample), so every reported value is an observed duration.
struct DurationStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
};

/// Computes DurationStats over `durations_ns` (sorted in place). All-zero
/// on an empty sample.
DurationStats duration_stats(std::vector<std::uint64_t>& durations_ns);

/// Collects the durations of every span named `name` across `lanes`.
std::vector<std::uint64_t> span_durations_ns(const std::vector<Lane>& lanes,
                                             std::string_view name);

/// Aggregates span events by name across all lanes and renders:
///   span | count | total ms | mean ms | p50 ms | p99 ms | p999 ms | max ms
/// sorted by total descending. Lanes with ring-full drops are flagged in a
/// trailing note.
std::string phase_summary(const std::vector<Lane>& lanes);

/// Renders a Snapshot as `metric | kind | value` rows, sorted by name.
std::string counters_table(const Snapshot& snapshot);

}  // namespace parmem::telemetry
