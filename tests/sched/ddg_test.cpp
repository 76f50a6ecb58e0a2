#include "sched/ddg.h"

#include <gtest/gtest.h>

namespace parmem::sched {
namespace {

using ir::Opcode;
using ir::Operand;
using ir::TacInstr;

struct Builder {
  ir::TacProgram p;
  ir::ValueId value(const std::string& name) {
    ir::ValueInfo vi;
    vi.name = name;
    return p.values.add(vi);
  }
  ir::ArrayId array(const std::string& name, std::size_t len) {
    ir::ArrayInfo ai;
    ai.name = name;
    ai.length = len;
    return p.arrays.add(ai);
  }
  void add(TacInstr in) { p.instrs.push_back(in); }
  void halt() {
    TacInstr in;
    in.op = Opcode::kHalt;
    add(in);
  }
  BlockDdg ddg() {
    const auto rg = ir::RegionGraph::build(p);
    EXPECT_EQ(rg.regions.size(), 1u);
    return DdgBuilder(p).build(rg.regions[0]);
  }
};

bool has_edge(const BlockDdg& d, std::uint32_t a, std::uint32_t b) {
  const auto s = d.succs(a);
  return std::find(s.begin(), s.end(), b) != s.end();
}

TEST(Ddg, RawDependence) {
  Builder b;
  const auto x = b.value("x");
  const auto y = b.value("y");
  TacInstr def;
  def.op = Opcode::kMov;
  def.dst = x;
  def.a = Operand::imm(std::int64_t{1});
  b.add(def);
  TacInstr use;
  use.op = Opcode::kMov;
  use.dst = y;
  use.a = Operand::val(x);
  b.add(use);
  b.halt();
  const auto d = b.ddg();
  EXPECT_TRUE(has_edge(d, 0, 1));
}

TEST(Ddg, WarAndWawDependences) {
  Builder b;
  const auto x = b.value("x");
  const auto y = b.value("y");
  // 0: y = x   (use of x)
  TacInstr use;
  use.op = Opcode::kMov;
  use.dst = y;
  use.a = Operand::val(x);
  b.add(use);
  // 1: x = 2   (WAR with 0)
  TacInstr def;
  def.op = Opcode::kMov;
  def.dst = x;
  def.a = Operand::imm(std::int64_t{2});
  b.add(def);
  // 2: x = 3   (WAW with 1)
  TacInstr def2 = def;
  def2.a = Operand::imm(std::int64_t{3});
  b.add(def2);
  b.halt();
  const auto d = b.ddg();
  EXPECT_TRUE(has_edge(d, 0, 1));  // WAR
  EXPECT_TRUE(has_edge(d, 1, 2));  // WAW
}

TEST(Ddg, IndependentOpsHaveNoEdge) {
  Builder b;
  const auto x = b.value("x");
  const auto y = b.value("y");
  TacInstr dx;
  dx.op = Opcode::kMov;
  dx.dst = x;
  dx.a = Operand::imm(std::int64_t{1});
  b.add(dx);
  TacInstr dy;
  dy.op = Opcode::kMov;
  dy.dst = y;
  dy.a = Operand::imm(std::int64_t{2});
  b.add(dy);
  b.halt();
  const auto d = b.ddg();
  EXPECT_FALSE(has_edge(d, 0, 1));
}

TEST(Ddg, ArrayOrdering) {
  Builder b;
  const auto a = b.array("a", 8);
  const auto a2 = b.array("b", 8);
  const auto t = b.value("t");
  const auto u = b.value("u");
  // 0: load t = a[0]
  TacInstr l;
  l.op = Opcode::kLoad;
  l.dst = t;
  l.array = a;
  l.a = Operand::imm(std::int64_t{0});
  b.add(l);
  // 1: load u = a[1] — load-load: independent
  TacInstr l2 = l;
  l2.dst = u;
  l2.a = Operand::imm(std::int64_t{1});
  b.add(l2);
  // 2: store a[2] = 5 — ordered after both loads
  TacInstr s;
  s.op = Opcode::kStore;
  s.array = a;
  s.a = Operand::imm(std::int64_t{2});
  s.b = Operand::imm(std::int64_t{5});
  b.add(s);
  // 3: store b[0] = 1 — different array: independent of 2
  TacInstr s2 = s;
  s2.array = a2;
  s2.a = Operand::imm(std::int64_t{0});
  b.add(s2);
  // 4: store a[3] = 6 — store-store on a: after 2
  TacInstr s3 = s;
  s3.a = Operand::imm(std::int64_t{3});
  s3.b = Operand::imm(std::int64_t{6});
  b.add(s3);
  b.halt();
  const auto d = b.ddg();
  EXPECT_FALSE(has_edge(d, 0, 1));
  EXPECT_TRUE(has_edge(d, 0, 2));
  EXPECT_TRUE(has_edge(d, 1, 2));
  EXPECT_FALSE(has_edge(d, 2, 3));
  EXPECT_TRUE(has_edge(d, 2, 4));
}

TEST(Ddg, PrintsAreTotallyOrdered) {
  Builder b;
  const auto x = b.value("x");
  TacInstr p1;
  p1.op = Opcode::kPrint;
  p1.a = Operand::val(x);
  b.add(p1);
  b.add(p1);
  b.halt();
  const auto d = b.ddg();
  EXPECT_TRUE(has_edge(d, 0, 1));
}

TEST(Ddg, TerminatorAfterEverything) {
  Builder b;
  const auto x = b.value("x");
  TacInstr dx;
  dx.op = Opcode::kMov;
  dx.dst = x;
  dx.a = Operand::imm(std::int64_t{1});
  b.add(dx);
  b.add(dx);
  b.halt();
  const auto d = b.ddg();
  EXPECT_TRUE(has_edge(d, 0, 2));
  EXPECT_TRUE(has_edge(d, 1, 2));
}

TEST(Ddg, HeightsAreCriticalPath) {
  Builder b;
  const auto x = b.value("x");
  const auto y = b.value("y");
  const auto z = b.value("z");
  TacInstr i0;
  i0.op = Opcode::kMov;
  i0.dst = x;
  i0.a = Operand::imm(std::int64_t{1});
  b.add(i0);  // 0
  TacInstr i1;
  i1.op = Opcode::kAdd;
  i1.dst = y;
  i1.a = Operand::val(x);
  i1.b = Operand::imm(std::int64_t{1});
  b.add(i1);  // 1 depends on 0
  TacInstr i2;
  i2.op = Opcode::kAdd;
  i2.dst = z;
  i2.a = Operand::val(y);
  i2.b = Operand::imm(std::int64_t{1});
  b.add(i2);  // 2 depends on 1
  b.halt();   // 3 after everything
  const auto d = b.ddg();
  EXPECT_EQ(d.height[3], 1u);
  EXPECT_EQ(d.height[2], 2u);
  EXPECT_EQ(d.height[1], 3u);
  EXPECT_EQ(d.height[0], 4u);
}

TEST(Ddg, BuilderCarriesNoStateAcrossBlocks) {
  // Block 0 loads a[0] and defines x; block 1 reads x and stores a[0]. In
  // block 1 neither may pick up an edge from block 0's def or load.
  Builder b;
  const auto x = b.value("x");
  const auto y = b.value("y");
  const auto t = b.value("t");
  const auto a = b.array("a", 4);
  TacInstr load;
  load.op = Opcode::kLoad;
  load.dst = t;
  load.array = a;
  load.a = Operand::imm(std::int64_t{0});
  b.add(load);  // 0
  TacInstr dx;
  dx.op = Opcode::kMov;
  dx.dst = x;
  dx.a = Operand::imm(std::int64_t{1});
  b.add(dx);  // 1
  TacInstr br;
  br.op = Opcode::kBr;
  br.target = 3;
  b.add(br);  // 2
  TacInstr use;
  use.op = Opcode::kMov;
  use.dst = y;
  use.a = Operand::val(x);
  b.add(use);  // 3 = block 1, node 0
  TacInstr store;
  store.op = Opcode::kStore;
  store.array = a;
  store.a = Operand::imm(std::int64_t{0});
  store.b = Operand::imm(std::int64_t{5});
  b.add(store);  // node 1
  b.halt();      // node 2

  const auto rg = ir::RegionGraph::build(b.p);
  ASSERT_EQ(rg.regions.size(), 2u);
  DdgBuilder builder(b.p);
  const BlockDdg first = builder.build(rg.regions[0]);
  const BlockDdg& d = builder.build(rg.regions[1]);
  EXPECT_EQ(d.first, 3u);
  EXPECT_EQ(d.pred_count, (std::vector<std::uint32_t>{0, 0, 2}));
  EXPECT_FALSE(has_edge(d, 0, 1));
  EXPECT_TRUE(has_edge(d, 0, 2));
  EXPECT_TRUE(has_edge(d, 1, 2));
  // Rebuilding block 0 reproduces its first build.
  const BlockDdg& again = builder.build(rg.regions[0]);
  EXPECT_EQ(again.succ_offsets, first.succ_offsets);
  EXPECT_EQ(again.succ_list, first.succ_list);
  EXPECT_EQ(again.pred_count, first.pred_count);
  EXPECT_EQ(again.height, first.height);
}

}  // namespace
}  // namespace parmem::sched
