// List scheduler: TAC -> long instruction words.
//
// The paper's compiler "generates all of the instructions without assigning
// physical memory modules for the operand values. Symbolic addresses are
// assigned to data values during scheduling" (§2). This scheduler compacts
// each basic block into words under two resource constraints:
//
//   * at most `fu_count` operations per word (one per functional unit);
//   * at most `module_count` distinct scalar operand reads per word — a
//     word fetching more scalars than there are modules could never be
//     conflict-free, whatever the assignment.
//
// Dependences come from BlockDdg; priority is critical-path height. Branch
// targets are rewritten from instruction indices to word indices.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ir/liw.h"
#include "ir/tac.h"

namespace parmem::sched {

/// Ready-op priority for list scheduling.
enum class SchedPriority : std::uint8_t {
  kCriticalPath,  // longest dependence chain first (default)
  kSourceOrder,   // original program order (the naive baseline)
};

struct SchedOptions {
  std::size_t fu_count = 8;
  std::size_t module_count = 8;
  SchedPriority priority = SchedPriority::kCriticalPath;
};

struct SchedStats {
  std::size_t words = 0;
  std::size_t ops = 0;
  /// ops / words: the packing density the speedup bench reports.
  double ilp() const {
    return words == 0 ? 0.0
                      : static_cast<double>(ops) / static_cast<double>(words);
  }
};

/// Schedules `prog`; fills `stats` if non-null. Throws support::UserError
/// if an op reads more distinct scalars than opts.module_count.
ir::LiwProgram schedule(const ir::TacProgram& prog, const SchedOptions& opts,
                        SchedStats* stats = nullptr);

}  // namespace parmem::sched
