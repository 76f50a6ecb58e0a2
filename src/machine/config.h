// Machine model configuration.
//
// The simulated machine follows the paper's RLIW template: `fu_count`
// functional units in lock-step, `module_count` memory modules accessed
// through an interconnection network, one access per module per memory
// cycle; a word whose accesses pile i-deep on one module takes i*Δ to fetch
// (§3's timing model: t = Σ i·Δ·p(i)).
#pragma once

#include <cstddef>
#include <cstdint>

namespace parmem::machine {

/// How the run-time bank of an array element is chosen — the knob behind
/// Table 2 (array conflicts are not predictable at compile time).
enum class ArrayPolicy : std::uint8_t {
  /// Elements interleaved across modules ((base + index) mod k): the
  /// practical layout the paper assumes production systems use.
  kInterleaved,
  /// Every array lives in module 0 — the paper's t_max pathology ("the
  /// storage required for all of the arrays ... allocated from the same
  /// memory module").
  kSingleModule,
  /// Each access lands on a uniformly random module — the paper's t_ave
  /// assumption, measured by Monte Carlo here.
  kUniformRandom,
  /// Array accesses of a word are spread to minimize the maximum module
  /// load — the paper's t_min ("no memory conflicts occur due to array
  /// references").
  kIdealSpread,
  /// Every array access of a word piles onto the most-loaded module — the
  /// paper's t_max ("assuming every array access causes a memory access
  /// conflict"). Note this dominates kSingleModule, which can accidentally
  /// dodge the modules the scalar fetches occupy.
  kWorstCase,
};

const char* array_policy_name(ArrayPolicy p);

/// Compile-time knobs; nothing here affects the simulated machine.
///
/// `threads` is analysis::compile_batch()'s job fan-out: the number of
/// execution contexts (`threads - 1` pool workers plus the calling thread,
/// with 0 and 1 both meaning inline on the caller). A single compile always
/// runs on its calling thread. Each job is a pure function of its source,
/// so every thread count produces byte-identical output.
struct ParallelConfig {
  std::size_t threads = 0;
  /// Speculative intra-atom coloring: a conflict-graph atom with at least
  /// this many undecided vertices is colored by optimistic chunked rounds
  /// with conflict repair instead of the sequential urgency heap
  /// (assign/speculate.h). 0 (default) keeps the tier off. Output is a pure
  /// function of the input and `speculate_chunk`; a different chunk size is
  /// a different (still conflict-free) schedule.
  std::size_t speculate_threshold = 0;
  /// Vertices per speculative chunk; part of the deterministic schedule
  /// (see above).
  std::size_t speculate_chunk = 256;
};

struct MachineConfig {
  std::size_t fu_count = 8;
  std::size_t module_count = 8;
  /// Cycles per memory transfer (the paper's Δ).
  std::uint64_t delta = 1;
  ArrayPolicy array_policy = ArrayPolicy::kInterleaved;
  /// Count result writes as module accesses (off: the paper counts operand
  /// fetches only).
  bool count_writes = false;
  /// Seed for kUniformRandom bank draws.
  std::uint64_t seed = 0x900dULL;
  /// Runaway guard for buggy programs.
  std::uint64_t max_words = 50'000'000;
};

}  // namespace parmem::machine
