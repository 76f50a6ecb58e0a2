#include "frontend/parser.h"

#include <sstream>

#include "frontend/lexer.h"
#include "support/diagnostics.h"

namespace parmem::frontend {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens, std::string_view source_name)
      : toks_(std::move(tokens)), source_name_(source_name) {}

  Program parse_program() {
    Program p;
    while (!at(TokKind::kEof)) {
      p.funcs.push_back(parse_func());
    }
    return p;
  }

 private:
  /// Deepest allowed expression/statement nesting: recursive descent uses
  /// the machine stack, so unbounded nesting in hostile input would
  /// overflow it instead of reporting a UserError.
  static constexpr int kMaxDepth = 256;

  const Token& cur() const { return toks_[pos_]; }
  bool at(TokKind k) const { return cur().kind == k; }

  [[noreturn]] void error(const std::string& msg) const {
    std::ostringstream os;
    if (source_name_.empty()) {
      os << "parse error at " << cur().line << ":" << cur().col << ": ";
    } else {
      os << source_name_ << ":" << cur().line << ":" << cur().col
         << ": parse error: ";
    }
    os << msg << " (found " << tok_kind_name(cur().kind)
       << (cur().text.empty() ? "" : " '" + cur().text + "'") << ")";
    throw support::UserError(os.str());
  }

  /// RAII depth guard for the recursive entry points.
  struct DepthGuard {
    Parser& p;
    explicit DepthGuard(Parser& parser) : p(parser) {
      if (++p.depth_ > kMaxDepth) p.error("nesting too deep");
    }
    ~DepthGuard() { --p.depth_; }
  };

  Token eat(TokKind k, const char* what) {
    if (!at(k)) error(std::string("expected ") + what);
    return toks_[pos_++];
  }

  bool accept(TokKind k) {
    if (at(k)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Type parse_type() {
    if (accept(TokKind::kInt)) return Type::kInt;
    if (accept(TokKind::kReal)) return Type::kReal;
    error("expected a type ('int' or 'real')");
  }

  Func parse_func() {
    Func f;
    f.line = cur().line;
    eat(TokKind::kFunc, "'func'");
    f.name = eat(TokKind::kIdent, "function name").text;
    eat(TokKind::kLParen, "'('");
    if (!at(TokKind::kRParen)) {
      do {
        Param p;
        p.name = eat(TokKind::kIdent, "parameter name").text;
        eat(TokKind::kColon, "':'");
        p.type = parse_type();
        f.params.push_back(std::move(p));
      } while (accept(TokKind::kComma));
    }
    eat(TokKind::kRParen, "')'");
    f.return_type = accept(TokKind::kColon) ? parse_type() : Type::kVoid;
    f.body = parse_block();
    return f;
  }

  std::vector<StmtPtr> parse_block() {
    eat(TokKind::kLBrace, "'{'");
    std::vector<StmtPtr> stmts;
    while (!at(TokKind::kRBrace)) {
      if (at(TokKind::kEof)) error("unterminated block");
      stmts.push_back(parse_stmt());
    }
    eat(TokKind::kRBrace, "'}'");
    return stmts;
  }

  StmtPtr make_stmt(Stmt::Kind k) {
    auto s = std::make_shared<Stmt>();
    s->kind = k;
    s->line = cur().line;
    return s;
  }

  StmtPtr parse_stmt() {
    const DepthGuard depth_guard(*this);
    if (at(TokKind::kVar)) return parse_var_decl();
    if (at(TokKind::kArray)) return parse_array_decl();
    if (at(TokKind::kIf)) return parse_if();
    if (at(TokKind::kWhile)) return parse_while();
    if (at(TokKind::kFor)) return parse_for();
    if (at(TokKind::kPrint)) return parse_print();
    if (at(TokKind::kReturn)) return parse_return();
    if (at(TokKind::kLBrace)) {
      auto s = make_stmt(Stmt::Kind::kBlock);
      s->body = parse_block();
      return s;
    }
    if (at(TokKind::kIdent)) {
      // Assignment, array store, or a call statement.
      const Token id = toks_[pos_];
      if (toks_[pos_ + 1].kind == TokKind::kAssign) {
        auto s = make_stmt(Stmt::Kind::kAssign);
        pos_ += 2;
        s->name = id.text;
        s->expr = parse_expr();
        eat(TokKind::kSemi, "';'");
        return s;
      }
      if (toks_[pos_ + 1].kind == TokKind::kLBracket) {
        // Could be a store `a[i] = e;` or an expression statement starting
        // with an array read; disambiguate by scanning to the matching ']'.
        std::size_t scan = pos_ + 2;
        int depth = 1;
        while (depth > 0 && toks_[scan].kind != TokKind::kEof) {
          if (toks_[scan].kind == TokKind::kLBracket) ++depth;
          if (toks_[scan].kind == TokKind::kRBracket) --depth;
          ++scan;
        }
        if (toks_[scan].kind == TokKind::kAssign) {
          auto s = make_stmt(Stmt::Kind::kArrayAssign);
          s->name = id.text;
          pos_ += 2;
          s->expr2 = parse_expr();  // index
          eat(TokKind::kRBracket, "']'");
          eat(TokKind::kAssign, "'='");
          s->expr = parse_expr();
          eat(TokKind::kSemi, "';'");
          return s;
        }
      }
    }
    // Expression statement (typically a void call).
    auto s = make_stmt(Stmt::Kind::kExpr);
    s->expr = parse_expr();
    eat(TokKind::kSemi, "';'");
    return s;
  }

  StmtPtr parse_var_decl() {
    auto s = make_stmt(Stmt::Kind::kVarDecl);
    eat(TokKind::kVar, "'var'");
    s->name = eat(TokKind::kIdent, "variable name").text;
    eat(TokKind::kColon, "':'");
    s->decl_type = parse_type();
    if (accept(TokKind::kAssign)) s->expr = parse_expr();
    eat(TokKind::kSemi, "';'");
    return s;
  }

  StmtPtr parse_array_decl() {
    auto s = make_stmt(Stmt::Kind::kArrayDecl);
    eat(TokKind::kArray, "'array'");
    s->name = eat(TokKind::kIdent, "array name").text;
    eat(TokKind::kColon, "':'");
    s->decl_type = parse_type();
    eat(TokKind::kLBracket, "'['");
    const Token len = eat(TokKind::kIntLit, "array length literal");
    s->array_length = len.int_value;
    eat(TokKind::kRBracket, "']'");
    eat(TokKind::kSemi, "';'");
    return s;
  }

  StmtPtr parse_if() {
    auto s = make_stmt(Stmt::Kind::kIf);
    eat(TokKind::kIf, "'if'");
    eat(TokKind::kLParen, "'('");
    s->expr = parse_expr();
    eat(TokKind::kRParen, "')'");
    s->body = parse_block();
    if (accept(TokKind::kElse)) {
      if (at(TokKind::kIf)) {
        s->else_body.push_back(parse_if());
      } else {
        s->else_body = parse_block();
      }
    }
    return s;
  }

  StmtPtr parse_while() {
    auto s = make_stmt(Stmt::Kind::kWhile);
    eat(TokKind::kWhile, "'while'");
    eat(TokKind::kLParen, "'('");
    s->expr = parse_expr();
    eat(TokKind::kRParen, "')'");
    s->body = parse_block();
    return s;
  }

  StmtPtr parse_for() {
    auto s = make_stmt(Stmt::Kind::kFor);
    eat(TokKind::kFor, "'for'");
    s->name = eat(TokKind::kIdent, "loop variable").text;
    eat(TokKind::kAssign, "'='");
    s->expr = parse_expr();
    eat(TokKind::kTo, "'to'");
    s->expr2 = parse_expr();
    s->body = parse_block();
    return s;
  }

  StmtPtr parse_print() {
    auto s = make_stmt(Stmt::Kind::kPrint);
    eat(TokKind::kPrint, "'print'");
    eat(TokKind::kLParen, "'('");
    s->expr = parse_expr();
    eat(TokKind::kRParen, "')'");
    eat(TokKind::kSemi, "';'");
    return s;
  }

  StmtPtr parse_return() {
    auto s = make_stmt(Stmt::Kind::kReturn);
    eat(TokKind::kReturn, "'return'");
    if (!at(TokKind::kSemi)) s->expr = parse_expr();
    eat(TokKind::kSemi, "';'");
    return s;
  }

  // ------------------------------------------------------- expressions --

  ExprPtr make_expr(Expr::Kind k) {
    auto e = std::make_unique<Expr>();
    e->kind = k;
    e->line = cur().line;
    return e;
  }

  ExprPtr parse_expr() {
    const DepthGuard depth_guard(*this);
    return parse_or();
  }

  ExprPtr parse_or() {
    auto lhs = parse_and();
    while (at(TokKind::kOrOr)) {
      auto e = make_expr(Expr::Kind::kBinary);
      ++pos_;
      e->bin_op = BinOp::kOr;
      e->a = std::move(lhs);
      e->b = parse_and();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_and() {
    auto lhs = parse_cmp();
    while (at(TokKind::kAndAnd)) {
      auto e = make_expr(Expr::Kind::kBinary);
      ++pos_;
      e->bin_op = BinOp::kAnd;
      e->a = std::move(lhs);
      e->b = parse_cmp();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_cmp() {
    auto lhs = parse_add();
    for (;;) {
      BinOp op;
      switch (cur().kind) {
        case TokKind::kEq: op = BinOp::kEq; break;
        case TokKind::kNe: op = BinOp::kNe; break;
        case TokKind::kLt: op = BinOp::kLt; break;
        case TokKind::kLe: op = BinOp::kLe; break;
        case TokKind::kGt: op = BinOp::kGt; break;
        case TokKind::kGe: op = BinOp::kGe; break;
        default: return lhs;
      }
      auto e = make_expr(Expr::Kind::kBinary);
      ++pos_;
      e->bin_op = op;
      e->a = std::move(lhs);
      e->b = parse_add();
      lhs = std::move(e);
    }
  }

  ExprPtr parse_add() {
    auto lhs = parse_mul();
    for (;;) {
      BinOp op;
      if (at(TokKind::kPlus)) {
        op = BinOp::kAdd;
      } else if (at(TokKind::kMinus)) {
        op = BinOp::kSub;
      } else {
        return lhs;
      }
      auto e = make_expr(Expr::Kind::kBinary);
      ++pos_;
      e->bin_op = op;
      e->a = std::move(lhs);
      e->b = parse_mul();
      lhs = std::move(e);
    }
  }

  ExprPtr parse_mul() {
    auto lhs = parse_unary();
    for (;;) {
      BinOp op;
      if (at(TokKind::kStar)) {
        op = BinOp::kMul;
      } else if (at(TokKind::kSlash)) {
        op = BinOp::kDiv;
      } else if (at(TokKind::kPercent)) {
        op = BinOp::kMod;
      } else {
        return lhs;
      }
      auto e = make_expr(Expr::Kind::kBinary);
      ++pos_;
      e->bin_op = op;
      e->a = std::move(lhs);
      e->b = parse_unary();
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    if (at(TokKind::kMinus)) {
      auto e = make_expr(Expr::Kind::kUnary);
      ++pos_;
      e->un_op = UnOp::kNeg;
      e->a = parse_unary();
      return e;
    }
    if (at(TokKind::kBang)) {
      auto e = make_expr(Expr::Kind::kUnary);
      ++pos_;
      e->un_op = UnOp::kNot;
      e->a = parse_unary();
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    if (at(TokKind::kIntLit)) {
      auto e = make_expr(Expr::Kind::kIntLit);
      e->int_value = cur().int_value;
      ++pos_;
      return e;
    }
    if (at(TokKind::kRealLit)) {
      auto e = make_expr(Expr::Kind::kRealLit);
      e->real_value = cur().real_value;
      ++pos_;
      return e;
    }
    if (accept(TokKind::kLParen)) {
      auto e = parse_expr();
      eat(TokKind::kRParen, "')'");
      return e;
    }
    // 'int'/'real' used as conversion builtins: int(e), real(e).
    if (at(TokKind::kInt) || at(TokKind::kReal)) {
      const bool to_int = at(TokKind::kInt);
      auto e = make_expr(Expr::Kind::kCall);
      e->name = to_int ? "int" : "real";
      ++pos_;
      eat(TokKind::kLParen, "'('");
      e->args.push_back(parse_expr());
      eat(TokKind::kRParen, "')'");
      return e;
    }
    if (at(TokKind::kIdent)) {
      const Token id = toks_[pos_++];
      if (accept(TokKind::kLParen)) {
        auto e = make_expr(Expr::Kind::kCall);
        e->name = id.text;
        e->line = id.line;
        if (!at(TokKind::kRParen)) {
          do {
            e->args.push_back(parse_expr());
          } while (accept(TokKind::kComma));
        }
        eat(TokKind::kRParen, "')'");
        return e;
      }
      if (accept(TokKind::kLBracket)) {
        auto e = make_expr(Expr::Kind::kArrayRef);
        e->name = id.text;
        e->line = id.line;
        e->a = parse_expr();
        eat(TokKind::kRBracket, "']'");
        return e;
      }
      auto e = make_expr(Expr::Kind::kVarRef);
      e->name = id.text;
      e->line = id.line;
      return e;
    }
    error("expected an expression");
  }

  std::vector<Token> toks_;
  std::string_view source_name_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Program parse(std::string_view source, std::string_view source_name) {
  return Parser(lex(source, source_name), source_name).parse_program();
}

}  // namespace parmem::frontend
