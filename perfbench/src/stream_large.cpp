// stream_large: large access streams compiled the way a parmemd `kind
// stream` request is — ir::parse_stream, assign::assign_modules (STOR1,
// hitting-set, k = 8), assign::verify_assignment — in a closed loop on one
// thread. Inputs: syn_monolithic (one giant non-chordal atom) and
// syn_modular (~83 atoms), see inputs.h.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "assign/verify.h"
#include "inputs.h"
#include "ir/stream_io.h"
#include "service/request.h"
#include "workloads.h"

namespace perfbench {

namespace as = parmem::assign;

namespace {

constexpr std::uint64_t kMaxStreamValues = std::uint64_t{1} << 20;

as::AssignOptions stream_options() {
  as::AssignOptions o;
  o.module_count = 8;
  o.strategy = as::Strategy::kStor1;
  o.method = as::DupMethod::kHittingSet;
  return o;
}

std::uint64_t placement_hash(const as::AssignResult& r) {
  std::string bytes;
  for (const auto m : r.placement) bytes += std::to_string(m) + ' ';
  for (const bool b : r.removed) bytes += b ? '1' : '0';
  return parmem::service::fnv1a64(bytes);
}

/// One round: syn_monolithic once and syn_modular three times,
/// seed-shuffled. The round's median is then the mean of the middle two
/// modular compiles (a steady centre) and the tail falls inside the
/// monolithic mode, instead of the median sitting in the gap between two
/// equally weighted modes.
constexpr std::size_t kModularPerRound = 3;

std::vector<std::size_t> round_order(std::size_t inputs, std::uint64_t seed,
                                     std::uint64_t round) {
  std::vector<std::size_t> order;
  for (const std::size_t slot :
       shuffled_order(inputs + kModularPerRound - 1, seed, round)) {
    order.push_back(std::min(slot, inputs - 1));  // extra slots: modular
  }
  return order;
}

struct Compile {
  parmem::ir::AccessStream stream;
  as::AssignResult result;
  as::VerifyReport report;
};

/// The parmemd `kind stream` path. `stage_ms`, when given, receives the
/// parse, assign and verify times.
Compile compile_stream(const StreamInput& in, const as::AssignOptions& opts,
                       std::array<double, 3>* stage_ms = nullptr) {
  Compile c;
  Clock::time_point t = Clock::now();
  const auto lap = [&](std::size_t stage) {
    if (stage_ms == nullptr) return;
    (*stage_ms)[stage] = ms_since(t);
    t = Clock::now();
  };
  c.stream = parmem::ir::parse_stream(in.text, "<service>", kMaxStreamValues);
  lap(0);
  c.result = as::assign_modules(c.stream, opts);
  lap(1);
  c.report = as::verify_assignment(c.stream, c.result);
  lap(2);
  return c;
}

/// What every compile of an input must reproduce.
struct Reference {
  std::uint64_t placement = 0;
  std::size_t copies = 0;
  bool operator==(const Reference&) const = default;
};

Reference reference_of(const Compile& c) {
  return {placement_hash(c.result), c.result.stats.total_copies};
}

/// Output checks of one compile; `ref` null skips the determinism check.
void check(const StreamInput& in, const Compile& c, const Reference* ref,
           Outcome& outcome) {
  if (!c.report.ok()) {
    outcome.fail(in.name + ": verify_assignment reports residual conflicts");
  } else if (ref != nullptr && reference_of(c) != *ref) {
    outcome.fail(in.name + ": assignment differs from the first compile");
  }
}

}  // namespace

void run_stream_large(const RunOptions& opts, Outcome& outcome,
                      Report& report) {
  const as::AssignOptions aopts = stream_options();
  std::vector<StreamInput> inputs;
  std::vector<Reference> refs;
  std::vector<double> setup_s;
  Outcome setup_outcome;
  CpuRotation cpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cpus.next();
    const Clock::time_point t0 = Clock::now();
    inputs = large_streams(opts.seed);
    refs.clear();
    setup_outcome = Outcome{};
    for (const StreamInput& in : inputs) {
      const Compile c = compile_stream(in, aopts);
      check(in, c, nullptr, setup_outcome);
      refs.push_back(reference_of(c));
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  outcome.attempted += inputs.size();
  for (const std::string& why : setup_outcome.failures) outcome.fail(why);
  std::size_t copies_per_round = 0;
  for (const Reference& r : refs) copies_per_round += r.copies;

  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<std::vector<double>> per_input_ms(inputs.size());
  std::vector<double> untraced_ms;  // every compile, in order
  std::uint64_t round = 0;
  const Clock::time_point loop_start = Clock::now();
  while (ms_since(loop_start) < untraced_s * 1000.0 || round == 0) {
    for (const std::size_t i : round_order(inputs.size(), opts.seed, round)) {
      cpus.next();
      const Clock::time_point t0 = Clock::now();
      const Compile c = compile_stream(inputs[i], aopts);
      const double ms = ms_since(t0);
      per_input_ms[i].push_back(ms);
      untraced_ms.push_back(ms);
      ++outcome.attempted;
      check(inputs[i], c, &refs[i], outcome);
    }
    ++round;
  }

  if (!opts.trace) {
    report.set("setup_s", median(setup_s), "s");
    report_closed_loop(per_input_ms, untraced_ms, report);
    report.set("copies_total", static_cast<double>(copies_per_round), "count");
    report.detail("rounds", static_cast<double>(round));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      report.detail("compile_ms.p50." + inputs[i].name, median(per_input_ms[i]));
    }
    return;
  }

  Layers layers;
  std::vector<double> traced_ms;
  std::vector<double> idle_per_round;
  double stage_total_ms = 0;
  double traced_total_ms = 0;
  const Clock::time_point traced_start = Clock::now();
  for (std::uint64_t r = 0;
       ms_since(traced_start) < (opts.seconds - untraced_s) * 1000.0 || r == 0;
       ++r) {
    double idle_ms = 0;
    for (const std::size_t i : round_order(inputs.size(), opts.seed, round + r)) {
      cpus.next();
      std::array<double, 3> stage_ms{};
      const Clock::time_point t0 = Clock::now();
      const Compile c = compile_stream(inputs[i], aopts, &stage_ms);
      const double wall_ms = ms_since(t0);

      layers.time("ir.parse_stream.ms", stage_ms[0]);
      layers.time("assign.total.ms", stage_ms[1]);
      layers.time("pipeline.verify.ms", stage_ms[2]);
      traced_ms.push_back(wall_ms);
      stage_total_ms += stage_ms[0] + stage_ms[1] + stage_ms[2];
      traced_total_ms += wall_ms;
      ++outcome.attempted;
      check(inputs[i], c, &refs[i], outcome);

      probe_assign_layers(c.stream, aopts, c.result, stage_ms[1], layers, idle_ms);
      count_assign_stats(c.result, layers);
    }
    idle_per_round.push_back(idle_ms);
    if (!layers.end_round()) {
      outcome.fail("stream_large: per-round layer counts changed between rounds");
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
