#include "ir/tac.h"

#include <sstream>

#include "support/diagnostics.h"

namespace parmem::ir {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kMov: return "mov";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kMod: return "mod";
    case Opcode::kNeg: return "neg";
    case Opcode::kCmpEq: return "cmpeq";
    case Opcode::kCmpNe: return "cmpne";
    case Opcode::kCmpLt: return "cmplt";
    case Opcode::kCmpLe: return "cmple";
    case Opcode::kCmpGt: return "cmpgt";
    case Opcode::kCmpGe: return "cmpge";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kNot: return "not";
    case Opcode::kToReal: return "toreal";
    case Opcode::kToInt: return "toint";
    case Opcode::kSqrt: return "sqrt";
    case Opcode::kSin: return "sin";
    case Opcode::kCos: return "cos";
    case Opcode::kAbs: return "abs";
    case Opcode::kSelect: return "select";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kXfer: return "xfer";
    case Opcode::kBr: return "br";
    case Opcode::kBrTrue: return "brtrue";
    case Opcode::kBrFalse: return "brfalse";
    case Opcode::kPrint: return "print";
    case Opcode::kHalt: return "halt";
  }
  PARMEM_UNREACHABLE("bad opcode");
}

namespace {

std::string operand_to_string(const Operand& o, const TacProgram& prog) {
  switch (o.kind) {
    case Operand::Kind::kNone:
      return "_";
    case Operand::Kind::kValue:
      return prog.values.info(o.value).name;
    case Operand::Kind::kImmInt:
      return std::to_string(o.imm_int);
    case Operand::Kind::kImmReal: {
      std::ostringstream os;
      os << o.imm_real;
      return os.str();
    }
  }
  PARMEM_UNREACHABLE("bad operand kind");
}

}  // namespace

std::string instr_to_string(const TacInstr& instr, const TacProgram& prog) {
  std::ostringstream os;
  os << opcode_name(instr.op);
  if (has_dst(instr.op)) {
    os << ' ' << prog.values.info(instr.dst).name << " =";
  }
  switch (instr.op) {
    case Opcode::kLoad:
      os << ' ' << prog.arrays.info(instr.array).name << '['
         << operand_to_string(instr.a, prog) << ']';
      break;
    case Opcode::kStore:
      os << ' ' << prog.arrays.info(instr.array).name << '['
         << operand_to_string(instr.a, prog)
         << "] := " << operand_to_string(instr.b, prog);
      break;
    case Opcode::kXfer:
      os << ' ' << operand_to_string(instr.a, prog) << " M"
         << instr.xfer_src_module << "->M" << instr.xfer_dst_module;
      break;
    case Opcode::kBr:
      os << " ->" << instr.target;
      break;
    case Opcode::kBrTrue:
    case Opcode::kBrFalse:
      os << ' ' << operand_to_string(instr.a, prog) << " ->" << instr.target;
      break;
    case Opcode::kSelect:
      os << ' ' << operand_to_string(instr.a, prog) << " ? "
         << operand_to_string(instr.b, prog) << " : "
         << operand_to_string(instr.c, prog);
      break;
    default: {
      const int arity = operand_arity(instr.op);
      if (arity >= 1) os << ' ' << operand_to_string(instr.a, prog);
      if (arity >= 2) os << ", " << operand_to_string(instr.b, prog);
      break;
    }
  }
  return os.str();
}

std::string TacProgram::to_string() const {
  std::ostringstream os;
  os << "program " << name << " (" << instrs.size() << " instrs, "
     << values.size() << " values, " << arrays.size() << " arrays)\n";
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    os << "  " << i << ": " << instr_to_string(instrs[i], *this) << '\n';
  }
  return os.str();
}

}  // namespace parmem::ir
