// LIW golden pins: the FNV-1a of the scheduled program text for the six
// paper programs, under both priorities at three machine shapes. Any
// change to the scheduler that is meant to be a pure speed-up must leave
// every pin unchanged. (8,2) drives the module-count skip path on nearly
// every word; (2,8) makes the functional-unit limit end most words.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "frontend/parser.h"
#include "frontend/sema.h"
#include "frontend/unroll.h"
#include "lower/ifconvert.h"
#include "lower/lower.h"
#include "lower/opt.h"
#include "lower/rename.h"
#include "sched/list_scheduler.h"
#include "support/diagnostics.h"
#include "support/fnv.h"
#include "workloads/workloads.h"

namespace parmem::sched {
namespace {

// The pipeline's front half at its default options: parse, sema, unroll,
// lower, if-convert, optimize — exactly the TAC compile_mc schedules.
ir::TacProgram front_half(const std::string& source) {
  frontend::Program ast = frontend::parse(source);
  frontend::sema(ast);
  frontend::unroll_loops(ast, {});
  ir::TacProgram tac = lower::lower_program(ast, {});
  lower::if_convert(tac, {});
  lower::optimize(tac);
  return tac;
}

struct Pin {
  const char* program;
  SchedPriority priority;
  std::size_t fu_count;
  std::size_t module_count;
  std::uint64_t hash;
};

// EXACT has selects reading three distinct scalars; with two modules no
// word can hold one, and the scheduler rejects the program as a user
// error.
constexpr std::uint64_t kUnschedulable = 0;

constexpr SchedPriority kCp = SchedPriority::kCriticalPath;
constexpr SchedPriority kSrc = SchedPriority::kSourceOrder;

// clang-format off
constexpr Pin kPins[] = {
    {"TAYLOR1", kCp, 8, 8, 0xd36a3355c7828c06ull},
    {"TAYLOR1", kCp, 2, 8, 0xa9e903eebb76d1ebull},
    {"TAYLOR1", kCp, 8, 2, 0xaa32c710b49c1a7aull},
    {"TAYLOR1", kSrc, 8, 8, 0xd36a3355c7828c06ull},
    {"TAYLOR1", kSrc, 2, 8, 0x484948314a290eb9ull},
    {"TAYLOR1", kSrc, 8, 2, 0xcba45ca6e5ca2153ull},
    {"TAYLOR2", kCp, 8, 8, 0x93e0bb0979ff563bull},
    {"TAYLOR2", kCp, 2, 8, 0x71cef94bbce2e70ull},
    {"TAYLOR2", kCp, 8, 2, 0x93e0bb0979ff563bull},
    {"TAYLOR2", kSrc, 8, 8, 0x91035b7b994fd1e7ull},
    {"TAYLOR2", kSrc, 2, 8, 0xaf567e1c773f34f8ull},
    {"TAYLOR2", kSrc, 8, 2, 0x91035b7b994fd1e7ull},
    {"EXACT", kCp, 8, 8, 0xec2a47c3febd3438ull},
    {"EXACT", kCp, 2, 8, 0x5459421996f72130ull},
    {"EXACT", kCp, 8, 2, kUnschedulable},
    {"EXACT", kSrc, 8, 8, 0x157ddb484be1a988ull},
    {"EXACT", kSrc, 2, 8, 0xc5b95b121d375e37ull},
    {"EXACT", kSrc, 8, 2, kUnschedulable},
    {"FFT", kCp, 8, 8, 0xbf2a25f075a92a4aull},
    {"FFT", kCp, 2, 8, 0xf85a9e8ce9086190ull},
    {"FFT", kCp, 8, 2, 0xda5f6e06572f01daull},
    {"FFT", kSrc, 8, 8, 0x49b5aaf4af83be51ull},
    {"FFT", kSrc, 2, 8, 0x87dba3c48373f54cull},
    {"FFT", kSrc, 8, 2, 0xe7625cc13f97f2edull},
    {"SORT", kCp, 8, 8, 0xd1721a3c0fbbecaeull},
    {"SORT", kCp, 2, 8, 0x8f2efea443f6edeeull},
    {"SORT", kCp, 8, 2, 0x9888867b67257a76ull},
    {"SORT", kSrc, 8, 8, 0xd0d7d23832d5ce3aull},
    {"SORT", kSrc, 2, 8, 0x68567c65ff7bcb91ull},
    {"SORT", kSrc, 8, 2, 0x21fa4dc0bfac3782ull},
    {"COLOR", kCp, 8, 8, 0xd7caa1ba17b793e1ull},
    {"COLOR", kCp, 2, 8, 0x1c27811843284dd8ull},
    {"COLOR", kCp, 8, 2, 0x729c573423e59399ull},
    {"COLOR", kSrc, 8, 8, 0xa6f03622880b294full},
    {"COLOR", kSrc, 2, 8, 0x86c5f3404cef21beull},
    {"COLOR", kSrc, 8, 2, 0x86744dada4e51adbull},
};
// clang-format on

TEST(LiwGolden, PaperProgramsScheduleToPinnedWords) {
  std::string current;
  ir::TacProgram tac;
  for (const Pin& pin : kPins) {
    if (current != pin.program) {
      current = pin.program;
      tac = front_half(workloads::workload(current).source);
    }
    const SchedOptions opts{.fu_count = pin.fu_count,
                            .module_count = pin.module_count,
                            .priority = pin.priority};
    const auto cell = [&pin] {
      return std::string(pin.program) +
             (pin.priority == kCp ? " critical-path" : " source") +
             " fu=" + std::to_string(pin.fu_count) +
             " k=" + std::to_string(pin.module_count);
    };
    if (pin.hash == kUnschedulable) {
      EXPECT_THROW(schedule(tac, opts), support::UserError) << cell();
      continue;
    }
    const std::uint64_t h = support::fnv1a64(schedule(tac, opts).to_string());
    EXPECT_EQ(h, pin.hash) << cell() << " got 0x" << std::hex << h;
  }
}

// Optimizer pins: the FNV-1a of the optimized TAC text and the optimizer's
// propagation and removal totals for the six paper programs, with renaming
// off and on and if-conversion at its default and disabled. The pass count
// is deliberately not pinned: a faster optimizer may reach the same fixed
// point in fewer sweeps.
struct TacPin {
  const char* program;
  bool rename;
  bool if_convert;
  std::uint64_t hash;
  std::size_t copies_propagated;
  std::size_t instructions_removed;
};

// clang-format off
constexpr TacPin kTacPins[] = {
    {"TAYLOR1", false, true, 0xd18426c289115462ull, 312, 113},
    {"TAYLOR1", false, false, 0xd18426c289115462ull, 312, 113},
    {"TAYLOR1", true, true, 0xbdf31af21c3368afull, 312, 113},
    {"TAYLOR1", true, false, 0xbdf31af21c3368afull, 312, 113},
    {"TAYLOR2", false, true, 0xb3fb33c3815e3a1ull, 118, 39},
    {"TAYLOR2", false, false, 0x9124d2fcea349e1full, 92, 26},
    {"TAYLOR2", true, true, 0xf85025e90bd2b1c0ull, 118, 40},
    {"TAYLOR2", true, false, 0x838a1be83dd07673ull, 92, 27},
    {"EXACT", false, true, 0x559593f7d20671a0ull, 372, 207},
    {"EXACT", false, false, 0xc90641b9d4ef2c8ull, 360, 204},
    {"EXACT", true, true, 0x559593f7d20671a0ull, 372, 207},
    {"EXACT", true, false, 0xc90641b9d4ef2c8ull, 360, 204},
    {"FFT", false, true, 0xdead70198a680c14ull, 394, 221},
    {"FFT", false, false, 0xdead70198a680c14ull, 394, 221},
    {"FFT", true, true, 0x9975464350f89eb9ull, 394, 302},
    {"FFT", true, false, 0x9975464350f89eb9ull, 394, 302},
    {"SORT", false, true, 0x90eceb3531f9fb7bull, 138, 102},
    {"SORT", false, false, 0x90eceb3531f9fb7bull, 138, 102},
    {"SORT", true, true, 0x3a35f785cee33e1cull, 138, 103},
    {"SORT", true, false, 0x3a35f785cee33e1cull, 138, 103},
    {"COLOR", false, true, 0x51a213ade9e0c198ull, 4264, 2026},
    {"COLOR", false, false, 0x51a213ade9e0c198ull, 4264, 2026},
    {"COLOR", true, true, 0x57a47a773e3ae7f4ull, 4264, 2210},
    {"COLOR", true, false, 0x57a47a773e3ae7f4ull, 4264, 2210},
};
// clang-format on

TEST(TacGolden, PaperProgramsOptimizeToPinnedTac) {
  for (const TacPin& pin : kTacPins) {
    frontend::Program ast =
        frontend::parse(workloads::workload(pin.program).source);
    frontend::sema(ast);
    frontend::unroll_loops(ast, {});
    ir::TacProgram tac = lower::lower_program(ast, {});
    if (pin.rename) lower::rename_locals(tac);
    if (pin.if_convert) lower::if_convert(tac, {});
    const lower::OptStats stats = lower::optimize(tac);
    const std::uint64_t h = support::fnv1a64(tac.to_string());
    const std::string cell = std::string(pin.program) +
                             (pin.rename ? " rename" : " no-rename") +
                             (pin.if_convert ? " if-convert" : " no-if-convert");
    EXPECT_EQ(h, pin.hash) << cell << " got 0x" << std::hex << h;
    EXPECT_EQ(stats.copies_propagated, pin.copies_propagated) << cell;
    EXPECT_EQ(stats.instructions_removed, pin.instructions_removed) << cell;
  }
}

}  // namespace
}  // namespace parmem::sched
