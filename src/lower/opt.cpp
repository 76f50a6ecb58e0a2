#include "lower/opt.h"

#include <cstdint>
#include <vector>

#include "ir/region.h"
#include "support/diagnostics.h"

namespace parmem::lower {
namespace {

using ir::Opcode;
using ir::Operand;
using ir::TacInstr;
using ir::ValueId;

/// Does executing this instruction have an effect beyond defining dst?
bool has_side_effect(const TacInstr& in) {
  switch (in.op) {
    case Opcode::kStore:
    case Opcode::kXfer:
    case Opcode::kBr:
    case Opcode::kBrTrue:
    case Opcode::kBrFalse:
    case Opcode::kPrint:
    case Opcode::kHalt:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::size_t copy_propagate(ir::TacProgram& prog) {
  const ir::RegionGraph rg = ir::RegionGraph::build(prog);
  std::size_t propagated = 0;

  // Per-value state, sized once and reset through `touched` at each region
  // start. alias[v] is the operand v currently copies (value or immediate)
  // when has_alias[v]. The values recorded as aliases of value y form a
  // list threaded through `links` from reverse_head[y]; a list is not
  // pruned when one of its values is redefined, so a stale entry still
  // kills that value's later alias when y is redefined (conservative, never
  // wrong).
  constexpr std::uint32_t kEnd = UINT32_MAX;
  struct Link {
    ValueId value;
    std::uint32_t next;
  };
  const std::size_t nvalues = prog.values.size();
  std::vector<Operand> alias(nvalues);
  std::vector<std::uint8_t> has_alias(nvalues, 0);
  std::vector<std::uint32_t> reverse_head(nvalues, kEnd);
  std::vector<Link> links;
  std::vector<ValueId> touched;

  const auto kill = [&](ValueId v) {
    has_alias[v] = 0;
    for (std::uint32_t l = reverse_head[v]; l != kEnd; l = links[l].next) {
      has_alias[links[l].value] = 0;
    }
    reverse_head[v] = kEnd;
  };

  for (const ir::Region& r : rg.regions) {
    for (const ValueId v : touched) {
      has_alias[v] = 0;
      reverse_head[v] = kEnd;
    }
    touched.clear();
    links.clear();

    for (std::uint32_t i = r.first; i < r.last; ++i) {
      TacInstr& in = prog.instrs[i];
      const auto rewrite = [&](Operand& o) {
        if (o.is_value() && has_alias[o.value]) {
          o = alias[o.value];
          ++propagated;
        }
      };
      const int arity = ir::operand_arity(in.op);
      if (arity >= 1) rewrite(in.a);
      if (arity >= 2) rewrite(in.b);
      if (arity >= 3) rewrite(in.c);

      if (ir::has_dst(in.op)) {
        kill(in.dst);
        if (in.op == Opcode::kMov) {
          // Record the copy (after rewriting, a is the ultimate source).
          if (!in.a.is_value() || in.a.value != in.dst) {
            alias[in.dst] = in.a;
            has_alias[in.dst] = 1;
            touched.push_back(in.dst);
            if (in.a.is_value()) {
              const ValueId y = in.a.value;
              links.push_back({in.dst, reverse_head[y]});
              reverse_head[y] = static_cast<std::uint32_t>(links.size() - 1);
              touched.push_back(y);
            }
          }
        }
      }
    }
  }
  return propagated;
}

std::size_t dead_code_eliminate(ir::TacProgram& prog) {
  const std::size_t n = prog.instrs.size();
  const std::size_t nvalues = prog.values.size();
  // reads[v] counts the live instructions that read v; the definitions of
  // each value are listed in CSR form (defs of v are
  // def_list[def_offsets[v] .. def_offsets[v + 1])).
  std::vector<std::uint32_t> reads(nvalues, 0);
  std::vector<std::uint32_t> def_offsets(nvalues + 1, 0);
  for (const TacInstr& in : prog.instrs) {
    for (const ValueId v : in.value_uses()) ++reads[v];
    if (ir::has_dst(in.op)) ++def_offsets[in.dst + 1];
  }
  for (std::size_t v = 0; v < nvalues; ++v) {
    def_offsets[v + 1] += def_offsets[v];
  }
  std::vector<std::uint32_t> def_list(def_offsets[nvalues]);
  {
    std::vector<std::uint32_t> fill(def_offsets.begin(),
                                    def_offsets.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      const TacInstr& in = prog.instrs[i];
      if (ir::has_dst(in.op)) def_list[fill[in.dst]++] = i;
    }
  }

  // A definition whose value no live instruction reads is dead. Removing
  // it releases its own reads, so the worklist follows a dead chain to its
  // end: one call reaches the fixpoint of repeated read-then-remove
  // sweeps. Only definitions are dropped this way, and no opcode with a
  // destination has a side effect.
  std::vector<bool> keep(n, true);
  std::size_t removed = 0;
  std::vector<ValueId> worklist;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (prog.instrs[i].op == Opcode::kNop) {
      keep[i] = false;
      ++removed;
    }
  }
  for (ValueId v = 0; v < nvalues; ++v) {
    if (reads[v] == 0 && def_offsets[v] != def_offsets[v + 1]) {
      worklist.push_back(v);
    }
  }
  while (!worklist.empty()) {
    const ValueId v = worklist.back();
    worklist.pop_back();
    for (std::uint32_t d = def_offsets[v]; d < def_offsets[v + 1]; ++d) {
      const std::uint32_t i = def_list[d];
      PARMEM_CHECK(!has_side_effect(prog.instrs[i]),
                   "a definition has a side effect");
      keep[i] = false;
      ++removed;
      for (const ValueId u : prog.instrs[i].value_uses()) {
        if (--reads[u] == 0) worklist.push_back(u);
      }
    }
  }
  if (removed == 0) return 0;

  // Compact in place and remap branch targets: a target maps to the first
  // kept instruction at or after it, which is the number of kept
  // instructions before it.
  std::vector<std::uint32_t> new_index(n + 1, 0);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    new_index[i] = next;
    if (keep[i]) ++next;
  }
  new_index[n] = next;
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    TacInstr& in = prog.instrs[i];
    if (ir::is_terminator(in.op) && in.op != Opcode::kHalt) {
      PARMEM_CHECK(in.target <= n, "target out of range");
      std::uint32_t t = new_index[in.target];
      if (t >= next) t = next - 1;  // clamp to the final halt
      in.target = t;
    }
    prog.instrs[new_index[i]] = in;
  }
  prog.instrs.resize(next);
  PARMEM_CHECK(!prog.instrs.empty() && prog.instrs.back().op == Opcode::kHalt,
               "DCE must preserve the trailing halt");
  return removed;
}

OptStats optimize(ir::TacProgram& prog) {
  OptStats stats;
  for (;;) {
    ++stats.passes;
    const std::size_t p = copy_propagate(prog);
    const std::size_t d = dead_code_eliminate(prog);
    stats.copies_propagated += p;
    stats.instructions_removed += d;
    if (p == 0 && d == 0) break;
    PARMEM_CHECK(stats.passes < 100, "optimizer failed to converge");
  }
  return stats;
}

}  // namespace parmem::lower
