#include "ir/liw.h"

#include <sstream>

#include "support/diagnostics.h"

namespace parmem::ir {

std::string LiwProgram::to_string() const {
  // Borrow the TAC printer by wrapping our tables in a shallow program.
  TacProgram shim;
  shim.values = values;
  shim.arrays = arrays;
  std::ostringstream os;
  os << "liw " << name << " (" << words.size() << " words)\n";
  for (std::size_t w = 0; w < words.size(); ++w) {
    os << "  W" << w << " [r" << words[w].region << "]:";
    bool first = true;
    for (const TacInstr& op : words[w].ops) {
      os << (first ? " " : " || ") << instr_to_string(op, shim);
      first = false;
    }
    os << '\n';
  }
  return os.str();
}

void validate_liw(const LiwProgram& prog, std::size_t fu_count) {
  for (std::size_t w = 0; w < prog.words.size(); ++w) {
    const LiwWord& word = prog.words[w];
    PARMEM_CHECK(!word.ops.empty(),
                 "word " + std::to_string(w) + " is empty");
    PARMEM_CHECK(word.ops.size() <= fu_count,
                 "word " + std::to_string(w) + " exceeds functional units");
    for (std::size_t s = 0; s < word.ops.size(); ++s) {
      const TacInstr& op = word.ops[s];
      if (is_terminator(op.op)) {
        PARMEM_CHECK(s + 1 == word.ops.size(),
                     "terminator must be the last op of word " +
                         std::to_string(w));
        if (op.op != Opcode::kHalt) {
          PARMEM_CHECK(op.target < prog.words.size(),
                       "branch target out of range in word " +
                           std::to_string(w));
        }
      }
      if (has_dst(op.op)) {
        // A word holds at most fu_count ops: scan the earlier ones.
        for (std::size_t t = 0; t < s; ++t) {
          PARMEM_CHECK(!has_dst(word.ops[t].op) || word.ops[t].dst != op.dst,
                       "two ops define the same value in word " +
                           std::to_string(w));
        }
      }
    }
  }
}

}  // namespace parmem::ir
