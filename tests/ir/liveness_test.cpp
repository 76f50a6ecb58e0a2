#include "ir/liveness.h"

#include <gtest/gtest.h>

namespace parmem::ir {
namespace {

/// Loop program:
///   0: mov i = 0          block 0
///   1: cmplt c = i, 10    block 1 (loop head)
///   2: brfalse c -> 5
///   3: add i = i, 1       block 2 (body)
///   4: br -> 1
///   5: print i            block 3
///   6: halt
struct LoopProg {
  TacProgram p;
  ValueId i, c;
};

LoopProg make_loop() {
  LoopProg lp;
  ValueInfo vi;
  vi.name = "i";
  vi.single_assignment = false;
  lp.i = lp.p.values.add(vi);
  vi.name = std::string("c");
  lp.c = lp.p.values.add(vi);
  auto& ins = lp.p.instrs;
  {
    TacInstr in;
    in.op = Opcode::kMov;
    in.dst = lp.i;
    in.a = Operand::imm(std::int64_t{0});
    ins.push_back(in);
  }
  {
    TacInstr in;
    in.op = Opcode::kCmpLt;
    in.dst = lp.c;
    in.a = Operand::val(lp.i);
    in.b = Operand::imm(std::int64_t{10});
    ins.push_back(in);
  }
  {
    TacInstr in;
    in.op = Opcode::kBrFalse;
    in.a = Operand::val(lp.c);
    in.target = 5;
    ins.push_back(in);
  }
  {
    TacInstr in;
    in.op = Opcode::kAdd;
    in.dst = lp.i;
    in.a = Operand::val(lp.i);
    in.b = Operand::imm(std::int64_t{1});
    ins.push_back(in);
  }
  {
    TacInstr in;
    in.op = Opcode::kBr;
    in.target = 1;
    ins.push_back(in);
  }
  {
    TacInstr in;
    in.op = Opcode::kPrint;
    in.a = Operand::val(lp.i);
    ins.push_back(in);
  }
  {
    TacInstr in;
    in.op = Opcode::kHalt;
    ins.push_back(in);
  }
  return lp;
}

TEST(Liveness, LoopVariableIsLiveAcrossRegions) {
  LoopProg lp = make_loop();
  const RegionGraph rg = RegionGraph::build(lp.p);
  const Liveness lv = Liveness::compute(lp.p, rg);
  EXPECT_TRUE(lv.global[lp.i]);
  // i is live into the loop-head block and the body.
  const RegionId head = rg.region_of[1];
  const RegionId body = rg.region_of[3];
  EXPECT_TRUE(lv.live_in[head][lp.i]);
  EXPECT_TRUE(lv.live_in[body][lp.i]);
}

TEST(Liveness, ConditionIsBlockLocal) {
  LoopProg lp = make_loop();
  const RegionGraph rg = RegionGraph::build(lp.p);
  const Liveness lv = Liveness::compute(lp.p, rg);
  // c is defined and consumed inside the head block (def at 1, used by the
  // branch at 2) — never live across a boundary.
  EXPECT_FALSE(lv.global[lp.c]);
}

TEST(Liveness, DeadAfterLastUse) {
  LoopProg lp = make_loop();
  const RegionGraph rg = RegionGraph::build(lp.p);
  const Liveness lv = Liveness::compute(lp.p, rg);
  const RegionId exit = rg.region_of[5];
  // Nothing is live out of the exit block.
  for (std::size_t v = 0; v < lp.p.values.size(); ++v) {
    EXPECT_FALSE(lv.live_out[exit][v]);
  }
}

TEST(Liveness, StraightLineHasNoGlobals) {
  TacProgram p;
  ValueInfo vi;
  vi.name = "t";
  const ValueId t = p.values.add(vi);
  TacInstr mov;
  mov.op = Opcode::kMov;
  mov.dst = t;
  mov.a = Operand::imm(std::int64_t{1});
  p.instrs.push_back(mov);
  TacInstr pr;
  pr.op = Opcode::kPrint;
  pr.a = Operand::val(t);
  p.instrs.push_back(pr);
  TacInstr h;
  h.op = Opcode::kHalt;
  p.instrs.push_back(h);

  const RegionGraph rg = RegionGraph::build(p);
  const Liveness lv = Liveness::compute(p, rg);
  EXPECT_FALSE(lv.global[t]);
}

}  // namespace
}  // namespace parmem::ir
