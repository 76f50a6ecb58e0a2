// Intra-block data-dependence graphs.
//
// The list scheduler packs a basic block's TAC into long instruction words;
// two operations may share a word only if neither depends on the other
// (lock-step semantics: all reads of a word see pre-word state). Edges:
//
//   RAW  def(v) -> use(v)
//   WAR  use(v) -> def(v)      (a later def may not enter the same word)
//   WAW  def(v) -> def(v)
//   array: load/store on the SAME array are ordered conservatively except
//          load-load (no index analysis — run-time banks are the paper's
//          Table 2 territory, not the compile-time problem);
//   print/halt: totally ordered among themselves (program output order);
//   terminator: after everything in the block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/region.h"
#include "ir/tac.h"

namespace parmem::sched {

/// Dependence graph over the instructions [first, last) of one basic block;
/// node i corresponds to instruction first + i.
struct BlockDdg {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  /// Successor lists in CSR form: succs(i) is
  /// succ_list[succ_offsets[i] .. succ_offsets[i + 1]).
  std::vector<std::uint32_t> succ_offsets;
  std::vector<std::uint32_t> succ_list;
  /// Number of predecessors (used as the ready-set counter).
  std::vector<std::uint32_t> pred_count;
  /// Critical-path height (1 for sinks) — the scheduling priority.
  std::vector<std::uint32_t> height;

  /// Nodes that must be scheduled strictly after node i, ascending.
  std::span<const std::uint32_t> succs(std::uint32_t i) const {
    return {succ_list.data() + succ_offsets[i],
            succ_offsets[i + 1] - succ_offsets[i]};
  }
};

/// Builds the BlockDdg of each block of one program. The per-value and
/// per-array state it needs is sized to the program once and reset by a
/// second walk over the block, so a block costs O(ops + edges).
class DdgBuilder {
 public:
  explicit DdgBuilder(const ir::TacProgram& prog);

  /// The dependence graph of `region`. The reference stays valid until the
  /// next build() call.
  const BlockDdg& build(const ir::Region& region);

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  void add_edge(std::uint32_t from, std::uint32_t to);

  const ir::TacProgram& prog_;
  BlockDdg ddg_;
  std::vector<std::uint32_t> edge_from_;  // edges in discovery order;
  std::vector<std::uint32_t> edge_to_;    // targets never decrease
  // Target of the latest edge out of each node: every edge found while
  // adding node n ends at n, so a repeat is exactly last_target_ == n.
  std::vector<std::uint32_t> last_target_;

  std::vector<std::uint32_t> last_def_;  // per value
  // The uses of each value since its latest def, as a list threaded
  // through the block's use records: last_use_[v] indexes the newest, and
  // each record links to the one before it.
  struct UseRecord {
    std::uint32_t node;
    std::uint32_t prev;
  };
  std::vector<std::uint32_t> last_use_;  // per value
  std::vector<UseRecord> uses_;
  std::vector<std::uint32_t> last_store_;  // per array
  std::vector<std::vector<std::uint32_t>> loads_since_store_;
};

}  // namespace parmem::sched
