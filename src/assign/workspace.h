// Reusable scratch for the assignment pipeline.
//
// The Fig. 4 coloring sweep and the Fig. 6 / Figs. 9-10 duplication passes
// are called once per atom / per strategy stage; with per-call O(V) or
// O(insts) temporaries the pipeline spends more time in allocation and
// memset than in the algorithms on atom-rich graphs. An AssignWorkspace
// owns those buffers and is threaded through the passes: one workspace per
// assign_modules() call serves every pass and atom of that call, so no
// scratch outlives the compile.
//
// Per-vertex and per-value state is epoch-stamped: an entry is valid only
// if its mark equals the current epoch, so "clearing" the scratch between
// atoms is a single counter increment instead of an O(V) wipe. Everything
// in here is scratch — results never live in a workspace — so reusing (or
// not reusing) one cannot change any output.
#pragma once

#include <cstdint>
#include <vector>

#include "assign/placement.h"
#include "assign/placement_state.h"
#include "graph/graph.h"

namespace parmem::support {
class Budget;
}

namespace parmem::assign {

struct AssignWorkspace {
  /// Active resource budget for the passes running on this workspace, or
  /// null for unlimited. Unlike the scratch below this *can* change
  /// results — exhaustion makes the assigner degrade down its tier ladder
  /// (see assigner.h) — so the assigner sets it explicitly.
  support::Budget* budget = nullptr;

  // ---- vertex-domain scratch (Fig. 4 coloring, one atom at a time) ----
  struct HeapEntry {
    std::uint64_t w;   // Σ wt(assigned → v)
    std::uint32_t kk;  // modules still usable (0 == infinitely urgent)
    std::uint64_t s;   // static tie-break
    graph::Vertex v;
  };

  std::uint64_t vertex_epoch = 0;
  std::vector<std::uint64_t> atom_mark;      // in current atom iff == epoch
  std::vector<std::uint32_t> deg;            // atom-local degree
  std::vector<std::uint64_t> s_sum;          // static weight sum S(v)
  std::vector<std::uint64_t> w_assigned;     // Σ wt(assigned → v) at start
  std::vector<std::uint32_t> neighbor_mods;  // modules taken around v
  /// Indexed urgency heap: one entry per undecided atom vertex, and
  /// heap_pos[v] the index of v's entry while v is in the heap.
  std::vector<HeapEntry> heap;
  std::vector<std::uint32_t> heap_pos;
  std::vector<graph::Vertex> rest;           // undecided atom vertices

  /// Starts scratch for a new atom of a graph with `n` vertices. All
  /// previous per-vertex stamps are invalidated by the epoch bump.
  void begin_atom(std::size_t n) {
    ++vertex_epoch;
    if (atom_mark.size() < n) {
      atom_mark.resize(n, 0);
      deg.resize(n);
      s_sum.resize(n);
      w_assigned.resize(n);
      neighbor_mods.resize(n);
      heap_pos.resize(n);
    }
    heap.clear();
    rest.clear();
  }

  bool in_atom(graph::Vertex v) const { return atom_mark[v] == vertex_epoch; }

  void mark_atom_member(graph::Vertex v) {
    atom_mark[v] = vertex_epoch;
    deg[v] = 0;
    s_sum[v] = 0;
    w_assigned[v] = 0;
    neighbor_mods[v] = 0;
  }

  // ---- value-domain scratch (duplication / placement) ----
  std::uint64_t value_epoch = 0;
  std::vector<std::uint64_t> value_mark;  // value selected iff == epoch
  /// Per instruction: lacks an SDR (hitting_set_duplicate's flags).
  std::vector<std::uint8_t> conflicting;
  /// The occurrence index of the slice hitting_set_duplicate works on.
  SliceIndex slice_index;
  /// Fig. 6 grouping: instruction indices by duplicable-operand count.
  std::vector<std::vector<std::uint32_t>> inst_groups;

  /// Starts value marks for a value universe of size `n`: every previous
  /// mark is invalidated by the epoch bump.
  void begin_values(std::size_t n) {
    ++value_epoch;
    if (value_mark.size() < n) value_mark.resize(n, 0);
  }

  /// Marks `v` (below the universe); returns false if it was marked.
  bool mark_value(std::uint64_t v) {
    if (value_mark[v] == value_epoch) return false;
    value_mark[v] = value_epoch;
    return true;
  }

  // ---- frontier snapshot (per-atom coloring) ----
  std::vector<std::int32_t> module_snapshot;
  std::vector<bool> decided_snapshot;
  std::vector<std::size_t> load_snapshot;

  /// Copies `atom`'s entries of `module` / `decided` and the whole (k-entry)
  /// `load` into the snapshot. Entries outside the atom keep whatever an
  /// earlier atom left there: an atom that reads only its own entries pays
  /// O(atom), not O(graph), per refresh.
  void snapshot_atom(const std::vector<graph::Vertex>& atom,
                     const std::vector<std::int32_t>& module,
                     const std::vector<bool>& decided,
                     const std::vector<std::size_t>& load) {
    if (module_snapshot.size() < module.size()) {
      module_snapshot.resize(module.size());
      decided_snapshot.resize(module.size());
    }
    for (const graph::Vertex v : atom) {
      module_snapshot[v] = module[v];
      decided_snapshot[v] = decided[v];
    }
    load_snapshot = load;
  }

  // ---- placement scratch (per-atom duplication) ----
  PlacementState placement_scratch;
};

}  // namespace parmem::assign
