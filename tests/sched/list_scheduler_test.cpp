#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "frontend/parser.h"
#include "frontend/sema.h"
#include "lower/lower.h"
#include "machine/simulator.h"
#include "sched/ddg.h"
#include "support/rng.h"

namespace parmem::sched {
namespace {

ir::TacProgram compile(const std::string& src) {
  frontend::Program ast = frontend::parse(src);
  frontend::sema(ast);
  return lower::lower_program(ast, {});
}

// Note on intra-word structure: a word may legally pack a use of x with a
// later def of x (WAR) — lock-step reads see the pre-word state — so the
// genuine no-RAW-in-one-word invariant is not checkable by inspecting a
// word in isolation. The authoritative check is semantic: the scheduled
// program's output must match the sequential reference, which the tests
// below assert for several machine widths.

TEST(ListScheduler, PacksIndependentOps) {
  const auto tac = compile(
      "func main() { var a: int = 1; var b: int = 2; var c: int = 3; var d: "
      "int = 4; print(a + b + c + d); }");
  SchedStats stats;
  const auto liw = schedule(tac, {.fu_count = 8, .module_count = 8}, &stats);
  EXPECT_LT(stats.words, stats.ops);  // real packing happened
  EXPECT_GT(stats.ilp(), 1.0);
}

TEST(ListScheduler, FuWidthOneDegeneratesToSequential) {
  const auto tac = compile("func main() { print(1 + 2 + 3); }");
  SchedStats stats;
  const auto liw = schedule(tac, {.fu_count = 1, .module_count = 8}, &stats);
  EXPECT_EQ(stats.words, stats.ops);
  for (const auto& w : liw.words) EXPECT_EQ(w.ops.size(), 1u);
}

TEST(ListScheduler, RespectsModuleCountOnScalarReads) {
  // Eight independent adds over eight distinct pre-defined variables would
  // need 8 simultaneous fetches; with module_count=2 each word may read at
  // most 2 distinct scalars.
  std::string src = "func main() {";
  for (int i = 0; i < 8; ++i) {
    src += "var v" + std::to_string(i) + ": int = " + std::to_string(i) + ";";
  }
  src += "var s: int = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7; print(s); }";
  const auto tac = compile(src);
  const auto liw = schedule(tac, {.fu_count = 8, .module_count = 2});
  for (const ir::LiwWord& w : liw.words) {
    std::set<ir::ValueId> reads;
    for (const ir::TacInstr& op : w.ops) {
      for (const ir::ValueId u : op.value_uses()) reads.insert(u);
    }
    EXPECT_LE(reads.size(), 2u);
  }
}

TEST(ListScheduler, BranchTargetsPointAtWords) {
  const auto tac = compile(
      "func main() { var i: int; var s: int = 0; for i = 1 to 3 { s = s + i; "
      "} print(s); }");
  const auto liw = schedule(tac, {.fu_count = 4, .module_count = 4});
  ir::validate_liw(liw, 4);  // targets in range, structure sound
  // And the scheduled program still runs correctly.
  assign::AssignResult dummy;
  dummy.module_count = 4;
  dummy.placement.assign(liw.values.size(), 0);
  machine::MachineConfig cfg;
  cfg.module_count = 4;
  const auto out = machine::run_liw(liw, dummy, cfg).output;
  EXPECT_EQ(out, (std::vector<std::string>{"6"}));
}

TEST(ListScheduler, SemanticsPreservedAcrossWidths) {
  const char* src =
      "func main() {\n"
      "  array a: int[16]; var i: int;\n"
      "  for i = 0 to 15 { a[i] = (i * 7 + 3) % 11; }\n"
      "  var s: int = 0;\n"
      "  for i = 0 to 15 { if (a[i] % 2 == 0) { s = s + a[i]; } }\n"
      "  print(s);\n"
      "}\n";
  const auto tac = compile(src);
  machine::MachineConfig cfg;
  const auto ref = machine::run_sequential(tac, cfg).output;
  for (const std::size_t fu : {1u, 2u, 4u, 8u}) {
    const auto liw = schedule(tac, {.fu_count = fu, .module_count = 8});
    assign::AssignResult dummy;
    dummy.module_count = 8;
    dummy.placement.assign(liw.values.size(), 0);
    EXPECT_EQ(machine::run_liw(liw, dummy, cfg).output, ref)
        << "fu=" << fu;
  }
}

TEST(ListScheduler, WiderMachinesNeverNeedMoreWords) {
  const auto tac = compile(
      "func main() { var a: int = 1; var b: int = a + 1; var c: int = a + 2; "
      "var d: int = b + c; var e: int = a * d; print(e + d); }");
  std::size_t prev = static_cast<std::size_t>(-1);
  for (const std::size_t fu : {1u, 2u, 4u, 8u}) {
    SchedStats stats;
    schedule(tac, {.fu_count = fu, .module_count = 8}, &stats);
    EXPECT_LE(stats.words, prev);
    prev = stats.words;
  }
}


TEST(ListScheduler, PriorityAblationPreservesSemantics) {
  const char* src =
      "func main() {\n"
      "  var a: int = 1; var b: int = a + 1; var c: int = b * 2;\n"
      "  var d: int = 5; var e: int = d - 1; var f: int = e * 3;\n"
      "  print(c + f);\n"
      "}\n";
  const auto tac = compile(src);
  machine::MachineConfig cfg;
  const auto ref = machine::run_sequential(tac, cfg).output;
  for (const auto prio :
       {SchedPriority::kCriticalPath, SchedPriority::kSourceOrder}) {
    SchedStats stats;
    const auto liw = schedule(
        tac, {.fu_count = 4, .module_count = 8, .priority = prio}, &stats);
    assign::AssignResult dummy;
    dummy.module_count = 8;
    dummy.placement.assign(liw.values.size(), 0);
    EXPECT_EQ(machine::run_liw(liw, dummy, cfg).output, ref);
  }
}

TEST(ListScheduler, CriticalPathNeverWorseOnChains) {
  // Two chains of different length: critical-path priority starts the long
  // chain immediately; source order may serialize behind the short one.
  // At minimum, CP must not produce more words.
  const char* src =
      "func main() {\n"
      "  var s: int = 0; var t: int = 1;\n"
      "  s = s + 1; s = s * 2; s = s + 3; s = s * 4; s = s - 5;\n"
      "  t = t + 1;\n"
      "  print(s + t);\n"
      "}\n";
  const auto tac = compile(src);
  SchedStats cp, so;
  schedule(tac, {.fu_count = 2, .module_count = 8,
                 .priority = SchedPriority::kCriticalPath}, &cp);
  schedule(tac, {.fu_count = 2, .module_count = 8,
                 .priority = SchedPriority::kSourceOrder}, &so);
  EXPECT_LE(cp.words, so.words);
}

// The list scheduler's reference: each word re-sorts the whole ready set by
// priority and walks it under the same fit rules — the algorithm the
// incremental ready list must reproduce exactly.
ir::LiwProgram fresh_sort_schedule(const ir::TacProgram& prog,
                                   const SchedOptions& opts) {
  const ir::RegionGraph rg = ir::RegionGraph::build(prog);
  ir::LiwProgram out;
  out.name = prog.name;
  out.values = prog.values;
  out.arrays = prog.arrays;
  std::vector<std::uint32_t> region_start(rg.regions.size(), 0);
  DdgBuilder ddgs(prog);
  for (const ir::Region& region : rg.regions) {
    region_start[region.id] = static_cast<std::uint32_t>(out.words.size());
    const BlockDdg& ddg = ddgs.build(region);
    std::vector<std::uint32_t> preds = ddg.pred_count;
    std::vector<bool> done(ddg.count, false);
    std::size_t left = ddg.count;
    while (left > 0) {
      std::vector<std::uint32_t> ready;
      for (std::uint32_t n = 0; n < ddg.count; ++n) {
        if (!done[n] && preds[n] == 0) ready.push_back(n);
      }
      std::sort(ready.begin(), ready.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (opts.priority == SchedPriority::kCriticalPath &&
                      ddg.height[a] != ddg.height[b]) {
                    return ddg.height[a] > ddg.height[b];
                  }
                  return a < b;
                });
      ir::LiwWord word;
      word.region = region.id;
      std::set<ir::ValueId> reads;
      std::vector<std::uint32_t> taken;
      bool has_terminator = false;
      for (const std::uint32_t n : ready) {
        if (word.ops.size() == opts.fu_count) break;
        const ir::TacInstr& in = prog.instrs[ddg.first + n];
        if (has_terminator && ir::is_terminator(in.op)) continue;
        std::set<ir::ValueId> with = reads;
        for (const ir::ValueId u : in.value_uses()) with.insert(u);
        if (with.size() > opts.module_count) continue;
        reads = with;
        taken.push_back(n);
        word.ops.push_back(in);
        has_terminator = has_terminator || ir::is_terminator(in.op);
      }
      for (std::size_t s = 0; s + 1 < word.ops.size(); ++s) {
        if (ir::is_terminator(word.ops[s].op)) {
          std::swap(word.ops[s], word.ops.back());
          break;
        }
      }
      for (const std::uint32_t n : taken) {
        done[n] = true;
        for (const std::uint32_t s : ddg.succs(n)) --preds[s];
      }
      left -= taken.size();
      out.words.push_back(std::move(word));
    }
  }
  for (ir::LiwWord& word : out.words) {
    for (ir::TacInstr& op : word.ops) {
      if (ir::is_terminator(op.op) && op.op != ir::Opcode::kHalt) {
        op.target = region_start[rg.region_of[op.target]];
      }
    }
  }
  return out;
}

// A random program of a few blocks over a small value pool, so that
// dependences, module-count rejections and ties in height are all common.
// Every op reads at most two distinct scalars, so every shape can hold it.
ir::TacProgram random_blocks(support::SplitMix64& rng) {
  ir::TacProgram p;
  p.name = "random";
  const std::size_t nvalues = 4 + rng.below(12);
  for (std::size_t v = 0; v < nvalues; ++v) {
    ir::ValueInfo vi;
    vi.name = "v";
    vi.name += std::to_string(v);
    p.values.add(vi);
  }
  for (const char* name : {"a", "b"}) {
    ir::ArrayInfo ai;
    ai.name = name;
    ai.length = 4;
    p.arrays.add(ai);
  }
  const auto operand = [&] {
    return rng.below(4) == 0
               ? ir::Operand::imm(static_cast<std::int64_t>(rng.below(9)))
               : ir::Operand::val(static_cast<ir::ValueId>(rng.below(nvalues)));
  };
  const std::size_t nops = 10 + rng.below(90);
  for (std::size_t i = 0; i < nops; ++i) {
    ir::TacInstr in;
    const std::uint64_t kind = rng.below(16);
    in.dst = static_cast<ir::ValueId>(rng.below(nvalues));
    in.a = operand();
    in.b = operand();
    if (kind < 8) {
      const ir::Opcode ops[] = {ir::Opcode::kAdd, ir::Opcode::kSub,
                                ir::Opcode::kMul, ir::Opcode::kCmpLt};
      in.op = ops[kind % 4];
    } else if (kind < 10) {
      in.op = ir::Opcode::kMov;
    } else if (kind < 11) {
      in.op = ir::Opcode::kSelect;
      in.c = ir::Operand::imm(std::int64_t{0});
    } else if (kind < 13) {
      in.op = ir::Opcode::kLoad;
      in.array = static_cast<ir::ArrayId>(rng.below(2));
    } else if (kind < 14) {
      in.op = ir::Opcode::kStore;
      in.array = static_cast<ir::ArrayId>(rng.below(2));
    } else if (kind < 15) {
      in.op = ir::Opcode::kPrint;
    } else {
      // End the block with a branch to the next instruction, which makes
      // that instruction a region leader.
      in.op = rng.below(2) == 0 ? ir::Opcode::kBr : ir::Opcode::kBrTrue;
      in.target = static_cast<std::uint32_t>(p.instrs.size() + 1);
    }
    p.instrs.push_back(in);
  }
  ir::TacInstr halt;
  halt.op = ir::Opcode::kHalt;
  p.instrs.push_back(halt);
  return p;
}

TEST(ListScheduler, MatchesFreshSortReference) {
  support::SplitMix64 rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const ir::TacProgram prog = random_blocks(rng);
    for (const auto& [fu, k] : {std::pair<std::size_t, std::size_t>{8, 8},
                                {2, 8},
                                {8, 2}}) {
      for (const auto prio :
           {SchedPriority::kCriticalPath, SchedPriority::kSourceOrder}) {
        const SchedOptions opts{
            .fu_count = fu, .module_count = k, .priority = prio};
        EXPECT_EQ(schedule(prog, opts).to_string(),
                  fresh_sort_schedule(prog, opts).to_string())
            << "iteration " << iter << " fu=" << fu << " k=" << k
            << (prio == SchedPriority::kCriticalPath ? " critical-path"
                                                     : " source");
      }
    }
  }
}

}  // namespace
}  // namespace parmem::sched
