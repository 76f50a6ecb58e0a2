// Three-address code (TAC).
//
// The lowering target of the MC front end and the input of the LIW
// scheduler. Branch targets are instruction indices (labels are resolved by
// the lowerer). Operands are either scalar data values (memory-resident,
// participating in module assignment) or immediates (encoded in the
// instruction word, never touching memory).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/value.h"
#include "support/diagnostics.h"

namespace parmem::ir {

enum class Opcode : std::uint8_t {
  kNop,
  kMov,     // dst = a
  kAdd,     // dst = a + b
  kSub,     // dst = a - b
  kMul,     // dst = a * b
  kDiv,     // dst = a / b
  kMod,     // dst = a % b (int only)
  kNeg,     // dst = -a
  kCmpEq,   // dst = (a == b) as int 0/1
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kAnd,     // dst = (a != 0) & (b != 0), int
  kOr,
  kNot,     // dst = (a == 0), int
  kToReal,  // dst = real(a)
  kToInt,   // dst = int(a), truncation
  kSqrt,
  kSin,
  kCos,
  kAbs,
  kSelect,  // dst = a ? b : c       (if-conversion; all operands evaluated)
  kLoad,    // dst = array[a]        (array access, bank known at run time)
  kStore,   // array[a] = b
  kXfer,    // inter-module copy of value a (src_module -> dst_module);
            // inserted by the transfer scheduler, never by the lowerer
  kBr,      // goto target
  kBrTrue,  // if (a != 0) goto target
  kBrFalse, // if (a == 0) goto target
  kPrint,   // emit a to the program's output stream
  kHalt,
};

const char* opcode_name(Opcode op);

// The opcode predicates below run for every op in every pass and are
// defined inline.

/// True for kBr/kBrTrue/kBrFalse/kHalt.
inline bool is_terminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kBrTrue ||
         op == Opcode::kBrFalse || op == Opcode::kHalt;
}

/// Number of source operand slots the opcode consumes (0..3).
inline int operand_arity(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kBr:
    case Opcode::kHalt:
      return 0;
    case Opcode::kMov:
    case Opcode::kNeg:
    case Opcode::kNot:
    case Opcode::kToReal:
    case Opcode::kToInt:
    case Opcode::kSqrt:
    case Opcode::kSin:
    case Opcode::kCos:
    case Opcode::kAbs:
    case Opcode::kLoad:   // a = index
    case Opcode::kXfer:   // a = the value being copied
    case Opcode::kBrTrue:
    case Opcode::kBrFalse:
    case Opcode::kPrint:
      return 1;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kStore:  // a = index, b = stored value
      return 2;
    case Opcode::kSelect:  // a = condition, b = then, c = else
      return 3;
  }
  PARMEM_UNREACHABLE("bad opcode");
}

/// True if the opcode defines `dst`.
inline bool has_dst(Opcode op) {
  switch (op) {
    case Opcode::kNop:
    case Opcode::kStore:
    case Opcode::kXfer:
    case Opcode::kBr:
    case Opcode::kBrTrue:
    case Opcode::kBrFalse:
    case Opcode::kPrint:
    case Opcode::kHalt:
      return false;
    default:
      return true;
  }
}

/// A source operand: a data value or an immediate.
struct Operand {
  enum class Kind : std::uint8_t { kNone, kValue, kImmInt, kImmReal };
  Kind kind = Kind::kNone;
  ValueId value = kInvalidValue;
  std::int64_t imm_int = 0;
  double imm_real = 0.0;

  static Operand none() { return {}; }
  static Operand val(ValueId v) {
    Operand o;
    o.kind = Kind::kValue;
    o.value = v;
    return o;
  }
  static Operand imm(std::int64_t i) {
    Operand o;
    o.kind = Kind::kImmInt;
    o.imm_int = i;
    return o;
  }
  static Operand imm(double r) {
    Operand o;
    o.kind = Kind::kImmReal;
    o.imm_real = r;
    return o;
  }

  bool is_value() const { return kind == Kind::kValue; }
};

/// The distinct scalar values one instruction reads, held inline (an
/// instruction has at most three source operands). Iterates like a
/// container.
class ValueUses {
 public:
  void push_back(ValueId v) { ids_[size_++] = v; }
  const ValueId* begin() const { return ids_.data(); }
  const ValueId* end() const { return ids_.data() + size_; }
  std::size_t size() const { return size_; }

 private:
  std::array<ValueId, 3> ids_{};
  std::uint8_t size_ = 0;
};

struct TacInstr {
  Opcode op = Opcode::kNop;
  ValueId dst = kInvalidValue;  // defined value, if has_dst(op)
  Operand a;                    // first source
  Operand b;                    // second source
  Operand c;                    // third source (kSelect's else-value)
  ArrayId array = 0;            // for kLoad/kStore
  std::uint32_t target = 0;     // branch target: instruction index
  // For kXfer only: which module the copy is read from / written to.
  std::uint32_t xfer_src_module = 0;
  std::uint32_t xfer_dst_module = 0;

  /// Distinct scalar value ids read by this instruction (0..3 entries), in
  /// operand order.
  ValueUses value_uses() const {
    ValueUses uses;
    const auto push_unique = [&uses](const Operand& o) {
      if (!o.is_value()) return;
      for (const ValueId u : uses) {
        if (u == o.value) return;
      }
      uses.push_back(o.value);
    };
    const int arity = operand_arity(op);
    if (arity >= 1) push_unique(a);
    if (arity >= 2) push_unique(b);
    if (arity >= 3) push_unique(c);
    return uses;
  }
};

/// A lowered compilation unit: a flat instruction list plus its value and
/// array tables. Execution starts at instruction 0; kHalt ends it.
struct TacProgram {
  std::string name;
  std::vector<TacInstr> instrs;
  ValueTable values;
  ArrayTable arrays;

  /// Pretty-printer for debugging and golden tests.
  std::string to_string() const;
};

std::string instr_to_string(const TacInstr& instr, const TacProgram& prog);

}  // namespace parmem::ir
