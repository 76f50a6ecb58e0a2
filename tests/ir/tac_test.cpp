#include "ir/tac.h"

#include <gtest/gtest.h>

namespace parmem::ir {
namespace {

TEST(Opcode, TerminatorClassification) {
  EXPECT_TRUE(is_terminator(Opcode::kBr));
  EXPECT_TRUE(is_terminator(Opcode::kBrTrue));
  EXPECT_TRUE(is_terminator(Opcode::kBrFalse));
  EXPECT_TRUE(is_terminator(Opcode::kHalt));
  EXPECT_FALSE(is_terminator(Opcode::kAdd));
  EXPECT_FALSE(is_terminator(Opcode::kPrint));
}

TEST(Opcode, ArityAndDst) {
  EXPECT_EQ(operand_arity(Opcode::kAdd), 2);
  EXPECT_EQ(operand_arity(Opcode::kMov), 1);
  EXPECT_EQ(operand_arity(Opcode::kHalt), 0);
  EXPECT_EQ(operand_arity(Opcode::kStore), 2);
  EXPECT_TRUE(has_dst(Opcode::kLoad));
  EXPECT_FALSE(has_dst(Opcode::kStore));
  EXPECT_FALSE(has_dst(Opcode::kPrint));
  EXPECT_FALSE(has_dst(Opcode::kXfer));
}

std::vector<ValueId> uses_of(const TacInstr& in) {
  const ValueUses uses = in.value_uses();
  return {uses.begin(), uses.end()};
}

TEST(TacInstr, ValueUsesCollectsDistinctValueOperands) {
  TacInstr in;
  in.op = Opcode::kAdd;
  in.dst = 5;
  in.a = Operand::val(1);
  in.b = Operand::val(2);
  EXPECT_EQ(uses_of(in), (std::vector<ValueId>{1, 2}));

  in.b = Operand::val(1);  // same value twice: one fetch
  EXPECT_EQ(uses_of(in), (std::vector<ValueId>{1}));

  in.b = Operand::imm(std::int64_t{7});  // immediates are not fetches
  EXPECT_EQ(uses_of(in), (std::vector<ValueId>{1}));

  in.op = Opcode::kSelect;  // the one three-operand opcode fills the list
  in.b = Operand::val(3);
  in.c = Operand::val(2);
  EXPECT_EQ(uses_of(in), (std::vector<ValueId>{1, 3, 2}));
  EXPECT_EQ(in.value_uses().size(), 3u);
}

TEST(TacProgram, PrintsReadableListing) {
  TacProgram p;
  p.name = "demo";
  ValueInfo vi;
  vi.name = "x";
  const ValueId x = p.values.add(vi);
  ArrayInfo ai;
  ai.name = "a";
  ai.length = 4;
  const ArrayId a = p.arrays.add(ai);

  TacInstr load;
  load.op = Opcode::kLoad;
  load.dst = x;
  load.array = a;
  load.a = Operand::imm(std::int64_t{2});
  p.instrs.push_back(load);

  TacInstr halt;
  halt.op = Opcode::kHalt;
  p.instrs.push_back(halt);

  const std::string s = p.to_string();
  EXPECT_NE(s.find("load x = a[2]"), std::string::npos);
  EXPECT_NE(s.find("halt"), std::string::npos);
}

TEST(ValueTable, MakeTempIsSingleAssignment) {
  ValueTable t;
  const ValueId v = t.make_temp(ScalarType::kReal, "tmp");
  EXPECT_TRUE(t.info(v).single_assignment);
  EXPECT_EQ(t.info(v).kind, ValueKind::kTemporary);
  EXPECT_EQ(t.info(v).type, ScalarType::kReal);
}

}  // namespace
}  // namespace parmem::ir
