// Abstract syntax tree for MC.
//
// Grammar sketch (see README for the full reference):
//
//   program    := { func }
//   func       := 'func' ident '(' params? ')' (':' type)? block
//   params     := ident ':' type { ',' ident ':' type }
//   block      := '{' { stmt } '}'
//   stmt       := 'var' ident ':' type ('=' expr)? ';'
//               | 'array' ident ':' type '[' intlit ']' ';'
//               | ident '=' expr ';'
//               | ident '[' expr ']' '=' expr ';'
//               | 'if' '(' expr ')' block ('else' (block | ifstmt))?
//               | 'while' '(' expr ')' block
//               | 'for' ident '=' expr 'to' expr block       (inclusive)
//               | 'print' '(' expr ')' ';'
//               | 'return' expr? ';'
//               | expr ';'                                    (call stmt)
//   expr       := standard precedence: || > && > cmp > addsub > muldiv >
//                 unary (- !) > primary
//   primary    := literal | ident | ident '(' args ')' | ident '[' expr ']'
//               | '(' expr ')'
//
// Builtins (unary calls): sqrt, sin, cos, abs, int, real.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace parmem::frontend {

enum class Type : std::uint8_t { kInt, kReal, kVoid };
const char* type_name(Type t);

// ---------------------------------------------------------------- Expr ----

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnOp : std::uint8_t { kNeg, kNot };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : std::uint8_t {
    kIntLit, kRealLit, kVarRef, kArrayRef, kBinary, kUnary, kCall,
  };
  Kind kind;
  int line = 0;

  // kIntLit / kRealLit
  std::int64_t int_value = 0;
  double real_value = 0.0;
  // kVarRef / kArrayRef / kCall
  std::string name;
  // kArrayRef: index; kUnary: operand; kBinary: lhs
  ExprPtr a;
  // kBinary: rhs
  ExprPtr b;
  // kBinary / kUnary
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNeg;
  // kCall
  std::vector<ExprPtr> args;

  // Filled by sema.
  Type type = Type::kVoid;
};

// ---------------------------------------------------------------- Stmt ----

struct Stmt;
// Statements are shared, not owned: loop unrolling makes every copy of a
// body point at the same statements once it has finished rewriting them,
// so the unrolled AST is a DAG. The passes after unrolling only read
// statements (sema, when re-run, writes the same types on every visit).
using StmtPtr = std::shared_ptr<Stmt>;

struct Stmt {
  enum class Kind : std::uint8_t {
    kVarDecl, kArrayDecl, kAssign, kArrayAssign, kIf, kWhile, kFor,
    kPrint, kReturn, kExpr, kBlock,
  };
  Kind kind;
  int line = 0;

  // kVarDecl / kArrayDecl / kAssign / kArrayAssign / kFor: target name
  std::string name;
  Type decl_type = Type::kInt;     // kVarDecl / kArrayDecl element type
  std::int64_t array_length = 0;   // kArrayDecl

  // kVarDecl: optional init; kAssign/kArrayAssign: value; kIf/kWhile: cond;
  // kFor: lower bound; kPrint/kReturn/kExpr: expression (may be null for
  // bare return).
  ExprPtr expr;
  ExprPtr expr2;  // kArrayAssign: index; kFor: upper bound

  std::vector<StmtPtr> body;       // kIf: then; kWhile/kFor/kBlock: body
  std::vector<StmtPtr> else_body;  // kIf
};

// ---------------------------------------------------------------- Func ----

struct Param {
  std::string name;
  Type type = Type::kInt;
};

struct Func {
  std::string name;
  std::vector<Param> params;
  Type return_type = Type::kVoid;
  std::vector<StmtPtr> body;
  int line = 0;
};

struct Program {
  std::vector<Func> funcs;

  /// The entry function ('main'); sema checks it exists.
  const Func* main() const;
};

}  // namespace parmem::frontend
