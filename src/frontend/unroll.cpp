#include "frontend/unroll.h"

#include <memory>

#include "support/diagnostics.h"

namespace parmem::frontend {
namespace {

std::size_t count_stmts(const std::vector<StmtPtr>& stmts) {
  std::size_t n = 0;
  for (const auto& s : stmts) {
    n += 1 + count_stmts(s->body) + count_stmts(s->else_body);
  }
  return n;
}

ExprPtr int_lit(std::int64_t v, int line) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kIntLit;
  e->int_value = v;
  e->line = line;
  e->type = Type::kInt;
  return e;
}

class Unroller {
 public:
  Unroller(const UnrollOptions& opts, std::size_t initial_size)
      : opts_(opts), budget_used_(initial_size) {}

  UnrollStats stats;

  void walk(std::vector<StmtPtr>& stmts) {
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      Stmt& s = *stmts[i];
      walk(s.body);
      walk(s.else_body);
      if (s.kind != Stmt::Kind::kFor) continue;
      if (!s.expr || !s.expr2) continue;
      if (s.expr->kind != Expr::Kind::kIntLit ||
          s.expr2->kind != Expr::Kind::kIntLit) {
        continue;  // bounds not compile-time constants
      }
      const std::int64_t lo = s.expr->int_value;
      const std::int64_t hi = s.expr2->int_value;
      const std::int64_t trip = hi >= lo ? hi - lo + 1 : 0;
      if (trip > static_cast<std::int64_t>(opts_.max_trip)) continue;

      const std::size_t body_size = count_stmts(s.body) + 2;
      const std::size_t cost = static_cast<std::size_t>(trip) * body_size;
      if (budget_used_ + cost > opts_.max_statements) continue;
      budget_used_ += cost;

      // Replacement: { i = lo; body } { i = lo+1; body } ... ; i = hi+1.
      std::vector<StmtPtr> replacement;
      for (std::int64_t it = 0; it < trip; ++it) {
        auto block = std::make_shared<Stmt>();
        block->kind = Stmt::Kind::kBlock;
        block->line = s.line;
        auto set_i = std::make_shared<Stmt>();
        set_i->kind = Stmt::Kind::kAssign;
        set_i->line = s.line;
        set_i->name = s.name;
        set_i->expr = int_lit(lo + it, s.line);
        block->body.push_back(std::move(set_i));
        // Every trip shares the body's statements; none is cloned.
        block->body.insert(block->body.end(), s.body.begin(), s.body.end());
        replacement.push_back(std::move(block));
        ++stats.copies_emitted;
      }
      // The loop variable's exit value: lo when the loop never ran, hi+1
      // otherwise (matching the lowered increment-then-test form).
      auto final_i = std::make_shared<Stmt>();
      final_i->kind = Stmt::Kind::kAssign;
      final_i->line = s.line;
      final_i->name = s.name;
      final_i->expr = int_lit(trip == 0 ? lo : hi + 1, s.line);
      replacement.push_back(std::move(final_i));

      ++stats.loops_unrolled;
      stmts.erase(stmts.begin() + static_cast<std::ptrdiff_t>(i));
      stmts.insert(stmts.begin() + static_cast<std::ptrdiff_t>(i),
                   std::make_move_iterator(replacement.begin()),
                   std::make_move_iterator(replacement.end()));
      i += replacement.size() - 1;
    }
  }

 private:
  const UnrollOptions& opts_;
  std::size_t budget_used_;
};

}  // namespace

UnrollStats unroll_loops(Program& program, const UnrollOptions& opts) {
  if (opts.max_trip == 0) return {};
  std::size_t initial = 0;
  for (const Func& f : program.funcs) initial += count_stmts(f.body);
  Unroller u(opts, initial);
  for (Func& f : program.funcs) u.walk(f.body);
  return u.stats;
}

}  // namespace parmem::frontend
