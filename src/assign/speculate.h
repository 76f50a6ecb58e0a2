// Speculative intra-atom coloring (opt-in).
//
// The Fig. 4 urgency heap colors one vertex at a time. This tier adapts the
// optimistic template of Rokos, Gorman and Kelly ("A Fast and Scalable
// Graph Coloring Algorithm for Multi-core and Many-core Architectures") to
// the paper's heuristic. It was built for chunk-parallel execution; a
// compile now runs on one thread, so the chunks run one after another:
//
//   1. order the atom's undecided vertices once by vertex id and cut the
//      order into fixed-size chunks (id-contiguous chunks keep most edges
//      chunk-internal on stream-shaped graphs);
//   2. per round, each chunk runs the Fig. 4 dynamic-urgency sweep over its
//      own members against a snapshot of the committed state — the
//      optimistic step; intra-chunk picks propagate, so chunk members never
//      collide with each other;
//   3. cross-chunk conflicts are detected by scanning each vertex's CSR
//      row for pending neighbors with a tentative pick: a vertex loses iff
//      a *lower-position* neighbor picked the same module, and a winner
//      defers when an endangered lower-position loser needs its pick;
//   4. at a serial barrier, winners commit in position order; losers and
//      deferrals recompute against the live committed state — saturated
//      ones are removed (or forced), nearly saturated ones commit serially,
//      the rest carry into the next round. Once the survivors are a
//      minority, a serial urgency-ordered tail finishes them, and a swap
//      post-pass tries to reclaim removed vertices by relocating or
//      exchanging committed neighbors.
//
// Every phase is a pure function of the round-start state and the fixed
// chunk partition, so the result is a pure function of the input and the
// chunk size. The lowest-position pending vertex can never lose, so each
// round resolves at least one vertex and the loop terminates.
//
// Budget: the tier runs under a deterministic half-share of the caller's
// remaining budget, charged serially at round boundaries (cost = one unit
// plus the vertex degree per pending vertex). On exhaustion every
// speculative decision is discarded and the caller falls back to the
// sequential heap under the untouched remainder — the fallback output is
// exactly what the sequential tier would have produced.
#pragma once

#include "assign/color_heuristic.h"

namespace parmem::assign {

/// Attempts to color one atom speculatively. `ws` must hold the atom state
/// prepared by the sequential sweep's setup (rest/deg/s_sum/w_assigned/
/// neighbor_mods); it is read, never written. Of `module` and `decided` it
/// reads only the atom's entries.
///
/// Returns true on success — `module`, `decided`, `load` and `result` are
/// updated exactly as a sequential commit would. Returns false when the
/// speculation budget share tripped (or the parent budget was already
/// exhausted): no external state has been modified, result.speculative
/// .fallbacks is incremented, and the caller must run the sequential
/// heuristic instead.
bool speculate_color_atom(const ConflictGraph& cg, const ColorOptions& opts,
                          std::vector<std::int32_t>& module,
                          std::vector<bool>& decided,
                          const std::vector<bool>& never_remove,
                          std::vector<std::size_t>& load, AssignWorkspace& ws,
                          ColorResult& result);

}  // namespace parmem::assign
