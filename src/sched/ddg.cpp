#include "sched/ddg.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace parmem::sched {

DdgBuilder::DdgBuilder(const ir::TacProgram& prog)
    : prog_(prog),
      last_def_(prog.values.size(), kNone),
      last_use_(prog.values.size(), kNone),
      last_store_(prog.arrays.size(), kNone),
      loads_since_store_(prog.arrays.size()) {}

void DdgBuilder::add_edge(std::uint32_t from, std::uint32_t to) {
  if (from == to) return;
  PARMEM_CHECK(from < to, "dependence edges must follow program order");
  if (last_target_[from] == to) return;  // already added while adding `to`
  last_target_[from] = to;
  edge_from_.push_back(from);
  edge_to_.push_back(to);
  ++ddg_.pred_count[to];
}

const BlockDdg& DdgBuilder::build(const ir::Region& region) {
  BlockDdg& ddg = ddg_;
  ddg.first = region.first;
  ddg.count = region.last - region.first;
  ddg.pred_count.assign(ddg.count, 0);
  last_target_.assign(ddg.count, kNone);
  edge_from_.clear();
  edge_to_.clear();
  uses_.clear();

  std::uint32_t last_output = kNone;  // print ordering

  for (std::uint32_t n = 0; n < ddg.count; ++n) {
    const ir::TacInstr& in = prog_.instrs[region.first + n];

    // RAW: uses depend on the latest def.
    for (const ir::ValueId u : in.value_uses()) {
      if (last_def_[u] != kNone) add_edge(last_def_[u], n);
      uses_.push_back({n, last_use_[u]});
      last_use_[u] = static_cast<std::uint32_t>(uses_.size() - 1);
    }

    if (ir::has_dst(in.op)) {
      const ir::ValueId d = in.dst;
      // WAW.
      if (last_def_[d] != kNone) add_edge(last_def_[d], n);
      // WAR: all uses since the previous def precede this def.
      for (std::uint32_t r = last_use_[d]; r != kNone; r = uses_[r].prev) {
        add_edge(uses_[r].node, n);
      }
      last_use_[d] = kNone;
      last_def_[d] = n;
    }

    // Array ordering.
    if (in.op == ir::Opcode::kLoad) {
      if (last_store_[in.array] != kNone) add_edge(last_store_[in.array], n);
      loads_since_store_[in.array].push_back(n);
    } else if (in.op == ir::Opcode::kStore) {
      if (last_store_[in.array] != kNone) {
        add_edge(last_store_[in.array], n);  // store-store
      }
      for (const std::uint32_t l : loads_since_store_[in.array]) {
        add_edge(l, n);  // load-store
      }
      loads_since_store_[in.array].clear();
      last_store_[in.array] = n;
    }

    // Output ordering.
    if (in.op == ir::Opcode::kPrint) {
      if (last_output != kNone) add_edge(last_output, n);
      last_output = n;
    }

    // Terminator: after everything else in the block.
    if (ir::is_terminator(in.op)) {
      PARMEM_CHECK(n + 1 == ddg.count,
                   "terminator must be the block's last instruction");
      for (std::uint32_t m = 0; m < n; ++m) add_edge(m, n);
    }
  }

  // Reset the per-value and per-array state this block set, for the next.
  for (std::uint32_t n = 0; n < ddg.count; ++n) {
    const ir::TacInstr& in = prog_.instrs[region.first + n];
    for (const ir::ValueId u : in.value_uses()) last_use_[u] = kNone;
    if (ir::has_dst(in.op)) last_def_[in.dst] = kNone;
    if (in.op == ir::Opcode::kLoad || in.op == ir::Opcode::kStore) {
      last_store_[in.array] = kNone;
      loads_since_store_[in.array].clear();
    }
  }

  // Successor CSR by counting sort on the source node. Edges were found in
  // ascending target order, so each row comes out ascending.
  ddg.succ_offsets.assign(ddg.count + 1, 0);
  for (const std::uint32_t from : edge_from_) ++ddg.succ_offsets[from + 1];
  for (std::uint32_t n = 0; n < ddg.count; ++n) {
    ddg.succ_offsets[n + 1] += ddg.succ_offsets[n];
  }
  ddg.succ_list.resize(edge_from_.size());
  // last_target_ is free again: reuse it as the per-row write cursor.
  std::copy(ddg.succ_offsets.begin(), ddg.succ_offsets.end() - 1,
            last_target_.begin());
  for (std::size_t e = 0; e < edge_from_.size(); ++e) {
    ddg.succ_list[last_target_[edge_from_[e]]++] = edge_to_[e];
  }

  // Critical-path heights (reverse topological order == reverse program
  // order, since all edges point forward).
  ddg.height.assign(ddg.count, 1);
  for (std::uint32_t n = ddg.count; n > 0; --n) {
    const std::uint32_t i = n - 1;
    for (const std::uint32_t s : ddg.succs(i)) {
      ddg.height[i] = std::max(ddg.height[i], ddg.height[s] + 1);
    }
  }
  return ddg;
}

}  // namespace parmem::sched
