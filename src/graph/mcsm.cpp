#include "graph/mcsm.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "support/diagnostics.h"

namespace parmem::graph {
namespace {

// Scratch shared by every MCS-M step. The per-step Dijkstra used to
// allocate and zero an O(n) distance array 4096 times over a 4096-vertex
// graph — 100+ MB of pure memset traffic. Instead the distance state is
// epoch-stamped (valid iff its stored epoch matches the current one) and
// all queue buffers are reused.
//
// The inner loop of the scan executes once per (step, live edge) pair —
// Theta(n * m) visits over a full run, hundreds of millions on the larger
// workloads — so the per-visit footprint is the whole game. Epoch and
// tentative minimax share one 64-bit word per vertex:
//
//   score[v] = (epoch << 32) | (0xFFFFFFFF - (best + 1))
//
// Newer epochs compare greater than stale ones and, within an epoch,
// smaller (better) minimax values compare greater — so "should this
// relaxation be taken?" is a single load and one unsigned compare, and
// writing the relaxed value is a single store.
//
// live_* is a mutable copy of the adjacency from which numbered vertices
// are removed as they are eliminated: each step's scan only walks the
// unnumbered remainder, cutting edge traffic by a third on average.
// Removal swap-deletes, so live rows are unsorted — harmless, because the
// final minimax values do not depend on visit order and the caller sorts
// the reachable set.
struct McsmScratch {
  std::vector<std::uint64_t> score;
  std::uint64_t epoch = 0;
  // Dial's bucket queue: buckets[g + 1] holds vertices whose tentative
  // minimax is g. Keys are bounded by the step's maximum weight (a few
  // dozen in practice), so every push/pop is O(1) instead of a binary
  // heap's O(log n). Every call drains and clears each bucket it touches,
  // so the buffers start empty.
  std::vector<std::vector<Vertex>> buckets;
  std::vector<Vertex> xrow;  // live neighbors of the step's chosen vertex

  std::vector<std::uint32_t> live_off;  // n + 1
  std::vector<Vertex> live_nbr;         // flat rows, mutable
  std::vector<std::uint32_t> live_deg;  // live prefix length of each row

  static std::uint64_t key(std::uint64_t epoch, std::int64_t best) {
    return (epoch << 32) |
           (0xFFFFFFFFu - static_cast<std::uint32_t>(best + 1));
  }

  explicit McsmScratch(const Graph& g) {
    const std::size_t n = g.vertex_count();
    score.assign(n, 0);
    epoch = 0;
    live_off.assign(n + 1, 0);
    live_deg.assign(n, 0);
    for (Vertex v = 0; v < n; ++v) {
      live_off[v + 1] = live_off[v] + static_cast<std::uint32_t>(g.degree(v));
      live_deg[v] = static_cast<std::uint32_t>(g.degree(v));
    }
    live_nbr.resize(live_off[n]);
    for (Vertex v = 0; v < n; ++v) {
      const auto nb = g.neighbors(v);
      std::copy(nb.begin(), nb.end(), live_nbr.begin() + live_off[v]);
    }
  }

  std::span<const Vertex> live(Vertex v) const {
    return {live_nbr.data() + live_off[v], live_deg[v]};
  }

  /// Removes `x` from every live neighbor's row (called once x is numbered).
  void remove(Vertex x) {
    for (const Vertex w : live(x)) {
      Vertex* row = live_nbr.data() + live_off[w];
      for (std::uint32_t i = 0; i < live_deg[w]; ++i) {
        if (row[i] == x) {
          row[i] = row[--live_deg[w]];
          break;
        }
      }
    }
    live_deg[x] = 0;
  }
};

// Minimax reachability for one MCS-M step.
//
// Given the chosen vertex x, find every unnumbered y such that some path
// x, x1, .., xk, y exists with all xi unnumbered and w(xi) < w(y). Define
// g(y) = min over paths of the maximum intermediate weight (-1 for a direct
// edge); then y qualifies iff g(y) < w(y). g() is computed with a Dijkstra
// scan keyed on g over the live (unnumbered) adjacency; the caller has
// already removed x itself from the live rows and passes x's former row in
// s.xrow, so the inner loop needs no self-exclusion test.
//
// Two properties make the scan cheap without changing its answer:
//
// Cutoff: x is the maximum-weight unnumbered vertex, so every candidate
// has w(y) <= w(x) and can only qualify through a path with minimax
// < w(x). Keys come out of the queue in non-decreasing order, so
// relaxations with via >= w(x) are never pushed — they could only ever
// produce non-qualifying minimax values. This is a pure search-space
// prune: the returned set (and hence MCS-M's order and fill) is exactly
// the unpruned algorithm's. While weights are flat (early steps) the scan
// is O(deg(x)) instead of a flood of the whole remaining graph.
//
// Bucket queue: the cutoff also bounds every key by w(x), a small integer,
// so Dial's algorithm applies — bucket b holds tentative minimax b - 1,
// buckets are drained in ascending order, and a vertex processed while
// draining its bucket can push into the same or a later bucket only
// (via = max(g, w(v)) >= g). Each push/pop is O(1) where a binary heap
// pays O(log n); the final minimax values — and therefore the sorted
// reached set — do not depend on the order equal keys are processed, so
// the queue discipline is free to change.
std::vector<Vertex> reachable_through_lower_weights(
    McsmScratch& s, const std::vector<std::int64_t>& weight,
    std::int64_t cutoff) {
  ++s.epoch;
  if (s.buckets.size() < static_cast<std::size_t>(cutoff) + 1) {
    s.buckets.resize(static_cast<std::size_t>(cutoff) + 1);
  }

  for (const Vertex y : s.xrow) {
    s.score[y] = McsmScratch::key(s.epoch, -1);  // direct: no intermediates
    s.buckets[0].push_back(y);
  }

  std::vector<Vertex> out;
  for (std::int64_t idx = 0; idx <= cutoff; ++idx) {
    auto& bucket = s.buckets[idx];
    const std::int64_t g = idx - 1;
    const std::uint64_t valid = McsmScratch::key(s.epoch, g);
    // Index loop: draining can append to this same bucket.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Vertex v = bucket[i];
      if (s.score[v] != valid) continue;  // stale, improved since pushed
      if (g < weight[v]) out.push_back(v);
      // Extending any path through v makes v an intermediate.
      const std::int64_t via = std::max(g, weight[v]);
      if (via >= cutoff) continue;  // extensions cannot qualify
      const std::uint64_t cand = McsmScratch::key(s.epoch, via);
      auto& next = s.buckets[via + 1];
      for (const Vertex w : s.live(v)) {
        if (cand > s.score[w]) {
          s.score[w] = cand;
          next.push_back(w);
        }
      }
    }
    bucket.clear();
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Triangulation mcs_m(const Graph& g) {
  const std::size_t n = g.vertex_count();
  Triangulation result;
  result.order.assign(n, 0);
  std::vector<std::int64_t> weight(n, 0);

  McsmScratch scratch(g);
  // Selection heap: the unnumbered vertex of maximum weight, lowest id on
  // ties. Weights only grow, so instead of re-keying, every increment
  // pushes a fresh entry and stale ones (an outdated weight, or a vertex
  // already numbered) are skipped when they surface. An entry packs
  // (weight, -id) into one word: weight in the high half, ~id in the low.
  const auto entry = [](std::int64_t w, Vertex v) {
    return (static_cast<std::uint64_t>(w) << 32) | (0xFFFFFFFFu - v);
  };
  std::priority_queue<std::uint64_t> heap;
  for (Vertex v = 0; v < n; ++v) heap.push(entry(0, v));
  constexpr std::int64_t kNumbered = -1;
  // adjacent_at[y] == step iff y is a live neighbor of the step's x: the
  // fill test, one mark per neighbor instead of a has_edge per reached y.
  std::vector<std::size_t> adjacent_at(n, 0);

  for (std::size_t step = n; step > 0; --step) {
    Vertex x = 0;
    for (;;) {
      PARMEM_CHECK(!heap.empty(), "no unnumbered vertex left");
      const std::uint64_t top = heap.top();
      heap.pop();
      x = 0xFFFFFFFFu - static_cast<Vertex>(top & 0xFFFFFFFFu);
      if (weight[x] != kNumbered && entry(weight[x], x) == top) break;
    }

    // Number x up front: save its live row for seeding, then delete it
    // from the live adjacency so the scan never sees it as an intermediate.
    scratch.xrow.assign(scratch.live(x).begin(), scratch.live(x).end());
    for (const Vertex w : scratch.xrow) adjacent_at[w] = step;
    scratch.remove(x);
    const auto reached =
        reachable_through_lower_weights(scratch, weight, weight[x]);
    for (const Vertex y : reached) {
      weight[y] += 1;
      heap.push(entry(weight[y], y));
      if (adjacent_at[y] != step) {
        result.fill.emplace_back(std::min(x, y), std::max(x, y));
      }
    }
    result.order[step - 1] = x;  // numbered `step`; eliminated at index step-1
    weight[x] = kNumbered;  // x left the live graph; its weight is never read
  }

  std::sort(result.fill.begin(), result.fill.end());
  result.fill.erase(std::unique(result.fill.begin(), result.fill.end()),
                    result.fill.end());
  return result;
}

bool is_perfect_elimination_ordering(const Graph& g,
                                     const std::vector<Vertex>& order) {
  PARMEM_CHECK(order.size() == g.vertex_count(),
               "ordering must cover all vertices");
  std::vector<std::size_t> pos(g.vertex_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Vertex v = order[i];
    // Later neighbors of v must form a clique.
    std::vector<Vertex> later;
    for (const Vertex w : g.neighbors(v)) {
      if (pos[w] > i) later.push_back(w);
    }
    if (!g.is_clique(later)) return false;
  }
  return true;
}

}  // namespace parmem::graph
