// The metric vocabulary. Layer names follow the library's telemetry span
// names (pipeline.*, assign.*, ...) so later in-program spans line up.
#include <utility>

#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},
      {"compile_ms.p50", "ms"},
      {"compile_ms.tail", "ms"},
      {"compile_ms.geomean", "ms"},
      {"throughput_per_s", "1/s"},
      {"hit_ms.p50", "ms"},
      {"miss_ms.p50", "ms"},
      {"miss_ms.tail", "ms"},
      {"copies_total", "count"},
      {"peak_rss_mb", "MB"},
  };
  return units;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      // frontend
      {"pipeline.parse.ms", "ms"},
      {"pipeline.sema.ms", "ms"},
      {"pipeline.unroll.ms", "ms"},
      // lower
      {"pipeline.lower.ms", "ms"},
      {"pipeline.if_convert.ms", "ms"},
      {"pipeline.optimize.ms", "ms"},
      {"lower.tac_ops", "count"},
      // sched
      {"pipeline.schedule.ms", "ms"},
      {"pipeline.transfer_sched.ms", "ms"},
      {"sched.words", "count"},
      {"sched.transfer_words_added", "count"},
      // ir
      {"pipeline.stream.ms", "ms"},
      {"ir.parse_stream.ms", "ms"},
      // assign / graph
      {"assign.total.ms", "ms"},
      {"assign.conflict_graph.ms", "ms"},
      {"assign.atoms.ms", "ms"},
      {"graph.mcsm.ms", "ms"},
      {"assign.color.ms", "ms"},
      {"assign.duplicate.ms", "ms"},
      {"assign.duplicate.idle_ms", "ms"},
      {"pipeline.verify.ms", "ms"},
      {"assign.conflict_edges", "count"},
      {"assign.atom_count", "count"},
      {"assign.largest_atom", "count"},
      {"graph.mcsm.fill_edges", "count"},
      {"assign.v_unassigned", "count"},
      {"assign.copies_inserted", "count"},
      {"assign.duplication_rounds", "count"},
      // machine
      {"machine.run_liw.ms", "ms"},
      {"machine.liw_cycles", "count"},
      {"machine.conflict_words", "count"},
      {"machine.memory_transfer_time", "count"},
      // cache
      {"cache.atom.hit_ratio", "ratio"},
      {"cache.atom.stores", "count"},
      {"cache.atom.evicted", "count"},
      // service
      {"service.result_cache.hit_ratio", "ratio"},
      {"service.result_cache.evicted", "count"},
      {"service.queue_depth.mean", "count"},
      {"service.compute_ms.p50", "ms"},
      {"service.overhead_ms.p50", "ms"},
      {"service.overhead_ms.tail", "ms"},
      {"service.hit_ms.tail", "ms"},
      {"service.shed", "count"},
      {"service.retried", "count"},
      // router
      {"router.spilled", "count"},
      {"router.shed", "count"},
      {"router.redriven", "count"},
      {"router.balance", "ratio"},
      // harness (validity of the run, not a layer)
      {"generator.lag_ms.tail", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"pipeline.accounted_ratio", "ratio"},
  };
  return units;
}

std::vector<std::string> names_of(
    const std::vector<std::pair<std::string, std::string>>& units) {
  std::vector<std::string> out;
  for (const auto& [name, unit] : units) out.push_back(name);
  return out;
}

std::string layer_unit(const std::string& name) {
  for (const auto& [n, unit] : per_layer_units()) {
    if (n == name) return unit;
  }
  return "count";
}

}  // namespace

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> names = names_of(end_to_end_units());
  return names;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> names = names_of(per_layer_units());
  return names;
}

void fill_unexercised_layers(Report& report) {
  for (const auto& [name, unit] : per_layer_units()) {
    if (report.metrics.count(name) == 0) report.set(name, 0, unit);
  }
}

bool Layers::end_round() {
  const bool same = rounds == 0 || round == first_round;
  if (rounds == 0) first_round = round;
  round.clear();
  ++rounds;
  return same;
}

void Layers::report(Report& out) const {
  for (const auto& [name, samples] : ms) {
    out.set(name, std::max(0.0, median(samples)), "ms");
  }
  for (const auto& [name, count] : first_round) {
    out.set(name, count, layer_unit(name));
  }
}

double median_of_rounds(const std::vector<double>& all, std::size_t round_size) {
  std::vector<double> round_medians;
  for (std::size_t lo = 0; lo + round_size <= all.size(); lo += round_size) {
    round_medians.push_back(
        median({all.begin() + static_cast<std::ptrdiff_t>(lo),
                all.begin() + static_cast<std::ptrdiff_t>(lo + round_size)}));
  }
  return median(round_medians);
}

void report_closed_loop(const std::vector<std::vector<double>>& per_input_ms,
                        const std::vector<double>& all, Report& report) {
  std::vector<double> medians;
  double total_ms = 0;
  for (const auto& samples : per_input_ms) {
    if (!samples.empty()) medians.push_back(median(samples));
  }
  for (const double ms : all) total_ms += ms;
  const std::size_t round_size = all.size() / per_input_ms.front().size();
  report.set_p50_tail("compile_ms", all);
  report.set("compile_ms.p50", median_of_rounds(all, round_size), "ms");
  report.set("compile_ms.geomean", geomean(medians), "ms");
  // Compiles per second of compile-clock time: a zero-think-time client's
  // rate, free of the benchmark's own off-clock output checks.
  report.set("throughput_per_s",
             total_ms > 0 ? 1000.0 * static_cast<double>(all.size()) / total_ms
                          : 0,
             "1/s");
  // No cache on a closed-loop compile path: a repeated input (a hit to
  // parmemd) and a new one both cost a full cold compile here.
  report.set("hit_ms.p50", median_of_rounds(all, round_size), "ms");
  report.set_p50_tail("miss_ms", all);
  report.set("miss_ms.p50", median_of_rounds(all, round_size), "ms");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
