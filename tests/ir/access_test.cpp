#include "ir/access.h"

#include <gtest/gtest.h>

namespace parmem::ir {
namespace {

TEST(AccessStream, FromTuplesDedupesAndSorts) {
  const auto s = AccessStream::from_tuples(5, {{3, 1, 3}, {}, {2}});
  ASSERT_EQ(s.tuples.size(), 2u);  // empty tuple dropped
  EXPECT_EQ(s.tuples[0].operands, (std::vector<ValueId>{1, 3}));
  EXPECT_EQ(s.tuples[1].operands, (std::vector<ValueId>{2}));
  EXPECT_EQ(s.max_width(), 2u);
  EXPECT_TRUE(s.duplicatable[0]);
}

LiwProgram two_word_program() {
  LiwProgram p;
  ValueInfo vi;
  vi.name = "a";
  vi.single_assignment = true;
  const ValueId a = p.values.add(vi);
  vi.name = std::string("b");
  vi.single_assignment = false;
  const ValueId b = p.values.add(vi);
  vi.name = std::string("c");
  vi.single_assignment = true;
  const ValueId c = p.values.add(vi);

  LiwWord w0;
  w0.region = 0;
  TacInstr add;
  add.op = Opcode::kAdd;
  add.dst = c;
  add.a = Operand::val(a);
  add.b = Operand::val(b);
  w0.ops.push_back(add);
  p.words.push_back(w0);

  LiwWord w1;
  w1.region = 1;
  TacInstr pr;
  pr.op = Opcode::kPrint;
  pr.a = Operand::val(c);
  w1.ops.push_back(pr);
  TacInstr h;
  h.op = Opcode::kHalt;
  w1.ops.push_back(h);
  p.words.push_back(w1);
  return p;
}

TEST(AccessStream, FromLiwExtractsReads) {
  const auto p = two_word_program();
  const auto s = AccessStream::from_liw(p);
  ASSERT_EQ(s.tuples.size(), 2u);
  EXPECT_EQ(s.tuples[0].operands, (std::vector<ValueId>{0, 1}));  // a, b
  EXPECT_EQ(s.tuples[1].operands, (std::vector<ValueId>{2}));     // c
  EXPECT_EQ(s.tuples[0].region, 0u);
  EXPECT_EQ(s.tuples[1].region, 1u);
}

TEST(AccessStream, FromLiwTracksDuplicatability) {
  const auto p = two_word_program();
  // Single-assignment-only model: mutable values are not duplicable.
  const auto strict = AccessStream::from_liw(p, /*include_writes=*/false,
                                             /*duplicate_mutables=*/false);
  EXPECT_TRUE(strict.duplicatable[0]);   // a single-assignment
  EXPECT_FALSE(strict.duplicatable[1]);  // b mutable
  // Default (paper) model: every definition's copies are refreshed by
  // scheduled transfers, so everything is duplicable.
  const auto paper = AccessStream::from_liw(p);
  EXPECT_TRUE(paper.duplicatable[0]);
  EXPECT_TRUE(paper.duplicatable[1]);
}

TEST(AccessStream, FromLiwMarksCrossRegionValuesGlobal) {
  const auto p = two_word_program();
  const auto s = AccessStream::from_liw(p);
  EXPECT_TRUE(s.global[2]);   // c defined in region 0, read in region 1
  EXPECT_FALSE(s.global[0]);  // a only touched in region 0
}

TEST(AccessStream, IncludeWritesAddsDestinations) {
  const auto p = two_word_program();
  const auto s = AccessStream::from_liw(p, /*include_writes=*/true);
  // Word 0 now also fetches c's slot (the write).
  EXPECT_EQ(s.tuples[0].operands, (std::vector<ValueId>{0, 1, 2}));
}

TEST(AccessStream, XferOpsAreNotOperandFetches) {
  LiwProgram p;
  ValueInfo vi;
  vi.name = "v";
  const ValueId v = p.values.add(vi);
  LiwWord w;
  TacInstr x;
  x.op = Opcode::kXfer;
  x.a = Operand::val(v);
  x.xfer_src_module = 0;
  x.xfer_dst_module = 1;
  w.ops.push_back(x);
  TacInstr h;
  h.op = Opcode::kHalt;
  w.ops.push_back(h);
  p.words.push_back(w);
  const auto s = AccessStream::from_liw(p);
  EXPECT_TRUE(s.tuples.empty());
}

TEST(ValidateLiw, CatchesStructuralViolations) {
  LiwProgram p = two_word_program();
  EXPECT_NO_THROW(validate_liw(p, 2));
  EXPECT_THROW(validate_liw(p, 1), support::InternalError);  // word 1: 2 ops

  // Terminator not last.
  LiwProgram bad = two_word_program();
  std::swap(bad.words[1].ops[0], bad.words[1].ops[1]);
  EXPECT_THROW(validate_liw(bad, 4), support::InternalError);

  // Two defs of the same value in one word.
  LiwProgram dd = two_word_program();
  dd.words[0].ops.push_back(dd.words[0].ops[0]);
  EXPECT_THROW(validate_liw(dd, 4), support::InternalError);
}

}  // namespace
}  // namespace parmem::ir
