#include "sched/list_scheduler.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sched/ddg.h"
#include "support/diagnostics.h"

namespace parmem::sched {

ir::LiwProgram schedule(const ir::TacProgram& prog, const SchedOptions& opts,
                        SchedStats* stats) {
  PARMEM_CHECK(opts.fu_count >= 1, "need at least one functional unit");
  PARMEM_CHECK(opts.module_count >= 1, "need at least one memory module");
  // A word reads at most module_count distinct scalars, so an op reading
  // more fits in no word: reject the program here, not as "no progress".
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    const ir::TacInstr& in = prog.instrs[i];
    const std::size_t reads = in.value_uses().size();
    if (reads > opts.module_count) {
      throw support::UserError(
          "op " + std::to_string(i) + " (" + ir::opcode_name(in.op) +
          ") reads " + std::to_string(reads) +
          " distinct scalars, but a word can fetch from only " +
          std::to_string(opts.module_count) + " memory modules");
    }
  }

  const ir::RegionGraph rg = ir::RegionGraph::build(prog);
  ir::LiwProgram out;
  out.name = prog.name;
  out.values = prog.values;
  out.arrays = prog.arrays;

  // First word index of every region (for branch patching).
  std::vector<std::uint32_t> region_start(rg.regions.size(), 0);

  DdgBuilder ddgs(prog);
  // The ready list: ops whose predecessors are all scheduled, kept sorted
  // by priority — (height descending, program index) for kCriticalPath,
  // program index for kSourceOrder. Both are strict total orders, so the
  // list always equals a fresh sort of the ready set.
  std::vector<std::uint32_t> ready;
  std::vector<std::uint32_t> remaining_preds;
  std::vector<std::uint32_t> taken;
  std::vector<ir::ValueId> reads;  // distinct scalar reads of the word

  for (const ir::Region& region : rg.regions) {
    region_start[region.id] = static_cast<std::uint32_t>(out.words.size());
    const BlockDdg& ddg = ddgs.build(region);
    const auto before = [&](std::uint32_t a, std::uint32_t b) {
      if (opts.priority == SchedPriority::kCriticalPath &&
          ddg.height[a] != ddg.height[b]) {
        return ddg.height[a] > ddg.height[b];
      }
      return a < b;
    };

    remaining_preds = ddg.pred_count;
    ready.clear();
    for (std::uint32_t n = 0; n < ddg.count; ++n) {
      if (remaining_preds[n] == 0) ready.push_back(n);
    }
    std::sort(ready.begin(), ready.end(), before);
    std::size_t left = ddg.count;

    while (left > 0) {
      PARMEM_CHECK(!ready.empty(), "dependence cycle in a basic block");
      ir::LiwWord word;
      word.region = region.id;
      reads.clear();
      taken.clear();
      bool has_terminator = false;

      // Walk the list in priority order until the word is full; ops that
      // do not fit stay in the list, compacted in place.
      std::size_t kept = 0;
      std::size_t i = 0;
      for (; i < ready.size() && word.ops.size() < opts.fu_count; ++i) {
        const std::uint32_t n = ready[i];
        const ir::TacInstr& in = prog.instrs[ddg.first + n];
        // A terminator's DDG preds keep it after every other block op; it
        // also takes the word's last slot (swapped there below).
        bool fits = !(has_terminator && ir::is_terminator(in.op));
        // Module-count constraint on distinct scalar reads.
        const ir::ValueUses uses = in.value_uses();
        if (fits) {
          std::size_t fresh = 0;
          for (const ir::ValueId u : uses) {
            fresh += std::find(reads.begin(), reads.end(), u) == reads.end();
          }
          fits = reads.size() + fresh <= opts.module_count;
        }
        if (!fits) {
          ready[kept++] = n;
          continue;
        }
        for (const ir::ValueId u : uses) {
          if (std::find(reads.begin(), reads.end(), u) == reads.end()) {
            reads.push_back(u);
          }
        }
        taken.push_back(n);
        word.ops.push_back(in);
        if (ir::is_terminator(in.op)) has_terminator = true;
      }
      PARMEM_CHECK(!taken.empty(), "scheduler made no progress");
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(kept),
                  ready.begin() + static_cast<std::ptrdiff_t>(i));

      // Keep the terminator in the final slot.
      if (has_terminator) {
        for (std::size_t s = 0; s + 1 < word.ops.size(); ++s) {
          if (ir::is_terminator(word.ops[s].op)) {
            std::swap(word.ops[s], word.ops.back());
            break;
          }
        }
      }

      // A word releases a few ops into a list of dozens: binary-insert
      // each, rather than merging the whole list.
      for (const std::uint32_t n : taken) {
        for (const std::uint32_t s : ddg.succs(n)) {
          if (--remaining_preds[s] == 0) {
            ready.insert(
                std::lower_bound(ready.begin(), ready.end(), s, before), s);
          }
        }
      }
      left -= taken.size();
      out.words.push_back(std::move(word));
    }
  }

  // Patch branch targets: instruction index -> region -> first word.
  for (ir::LiwWord& word : out.words) {
    for (ir::TacInstr& op : word.ops) {
      if (ir::is_terminator(op.op) && op.op != ir::Opcode::kHalt) {
        const ir::RegionId target_region = rg.region_of[op.target];
        PARMEM_CHECK(rg.regions[target_region].first == op.target,
                     "branch target must be a region leader");
        op.target = region_start[target_region];
      }
    }
  }

  ir::validate_liw(out, opts.fu_count);
  if (stats != nullptr) {
    stats->words = out.words.size();
    stats->ops = 0;
    for (const ir::LiwWord& w : out.words) stats->ops += w.ops.size();
  }
  return out;
}

}  // namespace parmem::sched
