#include "lower/opt.h"

#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "frontend/sema.h"
#include "frontend/unroll.h"
#include "lower/ifconvert.h"
#include "lower/lower.h"
#include "lower/rename.h"
#include "machine/simulator.h"
#include "support/rng.h"
#include "workloads/workloads.h"

namespace parmem::lower {
namespace {

ir::TacProgram compile(const std::string& src) {
  frontend::Program ast = frontend::parse(src);
  frontend::sema(ast);
  return lower_program(ast, {});
}

std::vector<std::string> run(const ir::TacProgram& tac) {
  machine::MachineConfig cfg;
  return machine::run_sequential(tac, cfg).output;
}

TEST(CopyPropagate, ForwardsThroughMov) {
  auto tac = compile(
      "func f(x: int): int { return x + 1; }\n"
      "func main() { print(f(41)); }");
  // Inlining produces mov chains (arg -> param, result -> ret); copy
  // propagation must collapse them.
  const std::size_t propagated = copy_propagate(tac);
  EXPECT_GT(propagated, 0u);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"42"}));
}

TEST(CopyPropagate, StopsWhenSourceIsRedefined) {
  // y = x; x = 0; print(y) must print the OLD x.
  auto tac = compile(
      "func main() { var x: int = 7; var y: int = x; x = 0; print(y); "
      "print(x); }");
  optimize(tac);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"7", "0"}));
}

TEST(CopyPropagate, StopsWhenDestinationIsRedefined) {
  auto tac = compile(
      "func main() { var x: int = 1; var y: int = x; y = 5; print(y); }");
  optimize(tac);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"5"}));
}

TEST(Dce, RemovesUnreadValues) {
  auto tac = compile(
      "func main() { var dead: int = 3 * 3; var live: int = 2; print(live); "
      "}");
  const std::size_t before = tac.instrs.size();
  const std::size_t removed = dead_code_eliminate(tac);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(tac.instrs.size(), before);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"2"}));
}

TEST(Dce, RemovesDeadChainInOneCall) {
  // live = 7; v1 = 1; v2 = v1 + 1; ...; vk = v(k-1) + 1; print(live);
  // halt. Only vk is unread at first, but removing it leaves v(k-1)
  // unread, and so on: one call removes the whole chain.
  constexpr std::size_t kChain = 6;
  ir::TacProgram tac;
  std::vector<ir::ValueId> chain;
  for (std::size_t i = 0; i <= kChain; ++i) {
    ir::ValueInfo vi;
    vi.name = "v";
    vi.name += std::to_string(i);
    chain.push_back(tac.values.add(vi));
  }
  const ir::ValueId live = chain[0];
  ir::TacInstr def_live;
  def_live.op = ir::Opcode::kMov;
  def_live.dst = live;
  def_live.a = ir::Operand::imm(std::int64_t{7});
  tac.instrs.push_back(def_live);
  for (std::size_t i = 1; i <= kChain; ++i) {
    ir::TacInstr in;
    in.op = i == 1 ? ir::Opcode::kMov : ir::Opcode::kAdd;
    in.dst = chain[i];
    in.a = i == 1 ? ir::Operand::imm(std::int64_t{1})
                  : ir::Operand::val(chain[i - 1]);
    in.b = ir::Operand::imm(std::int64_t{1});
    tac.instrs.push_back(in);
  }
  ir::TacInstr print;
  print.op = ir::Opcode::kPrint;
  print.a = ir::Operand::val(live);
  tac.instrs.push_back(print);
  ir::TacInstr halt;
  halt.op = ir::Opcode::kHalt;
  tac.instrs.push_back(halt);

  EXPECT_EQ(dead_code_eliminate(tac), kChain);
  ASSERT_EQ(tac.instrs.size(), 3u);
  EXPECT_EQ(tac.instrs[0].dst, live);
  EXPECT_EQ(dead_code_eliminate(tac), 0u);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"7"}));
}

TEST(Dce, KeepsSideEffects) {
  auto tac = compile(
      "func main() { array a: int[2]; a[0] = 9; print(a[0]); }");
  dead_code_eliminate(tac);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"9"}));
}

TEST(Dce, RemapsBranchTargets) {
  auto tac = compile(
      "func main() { var i: int; var s: int = 0; var dead: int = 1; "
      "for i = 1 to 3 { s = s + i; var dead2: int = i * i; } print(s); }");
  optimize(tac);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"6"}));
}

TEST(Optimize, ConvergesAndPreservesSemanticsOnWorkloadLikeCode) {
  const char* src =
      "func sq(x: int): int { return x * x; }\n"
      "func main() {\n"
      "  array a: int[8]; var i: int;\n"
      "  for i = 0 to 7 { a[i] = sq(i) + 1; }\n"
      "  var s: int = 0;\n"
      "  for i = 0 to 7 { if (a[i] % 2 == 1) { s = s + a[i]; } }\n"
      "  print(s);\n"
      "}\n";
  auto plain = compile(src);
  auto optimized = compile(src);
  const auto stats = optimize(optimized);
  EXPECT_GT(stats.copies_propagated + stats.instructions_removed, 0u);
  EXPECT_LT(optimized.instrs.size(), plain.instrs.size());
  EXPECT_EQ(run(plain), run(optimized));
}

TEST(Optimize, ComposesWithRenaming) {
  const char* src =
      "func main() { var x: int = 1; x = x + 2; x = x * 3; x = x - 4; "
      "print(x); }";
  auto tac = compile(src);
  rename_locals(tac);
  const auto stats = optimize(tac);
  EXPECT_GT(stats.copies_propagated + stats.instructions_removed, 0u);
  EXPECT_EQ(run(tac), (std::vector<std::string>{"5"}));
}

TEST(Optimize, SecondSweepIsANoOp) {
  // optimize stops at a fixed point of both passes: on every paper
  // program, with and without renaming, neither pass finds anything more.
  for (const char* name : {"TAYLOR1", "TAYLOR2", "EXACT", "FFT", "SORT",
                           "COLOR"}) {
    for (const bool rename : {false, true}) {
      frontend::Program ast =
          frontend::parse(workloads::workload(name).source);
      frontend::sema(ast);
      frontend::unroll_loops(ast, {});
      ir::TacProgram tac = lower_program(ast, {});
      if (rename) rename_locals(tac);
      if_convert(tac, {});
      optimize(tac);
      EXPECT_EQ(copy_propagate(tac), 0u) << name << " rename=" << rename;
      EXPECT_EQ(dead_code_eliminate(tac), 0u) << name << " rename=" << rename;
    }
  }
}

TEST(Optimize, RandomProgramsKeepTheirMeaning) {
  // Generate random arithmetic DAG programs and check optimized == plain.
  support::SplitMix64 rng(101);
  for (int iter = 0; iter < 15; ++iter) {
    std::string src = "func main() {\n";
    const int vars = 4;
    for (int v = 0; v < vars; ++v) {
      src += "  var v" + std::to_string(v) +
             ": int = " + std::to_string(rng.below(10)) + ";\n";
    }
    for (int step = 0; step < 12; ++step) {
      const int dst = static_cast<int>(rng.below(vars));
      const int a = static_cast<int>(rng.below(vars));
      const int b = static_cast<int>(rng.below(vars));
      const char* ops[] = {"+", "-", "*"};
      src += "  v" + std::to_string(dst) + " = v" + std::to_string(a) + " " +
             ops[rng.below(3)] + " v" + std::to_string(b) + ";\n";
    }
    src += "  print(v0 + v1); print(v2 * v3);\n}\n";
    auto plain = compile(src);
    auto optimized = compile(src);
    optimize(optimized);
    EXPECT_EQ(run(plain), run(optimized)) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace parmem::lower
