#include "assign/speculate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "assign/module_set.h"
#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace parmem::assign {
namespace {

using graph::Vertex;
using HeapEntry = AssignWorkspace::HeapEntry;

/// Deterministic re-pick rotation: the idx-th set bit of `mask`.
std::uint32_t nth_set_bit(std::uint32_t mask, std::uint32_t idx) {
  for (std::uint32_t i = 0; i < idx; ++i) mask &= mask - 1;
  return static_cast<std::uint32_t>(std::countr_zero(mask));
}

}  // namespace

bool speculate_color_atom(const ConflictGraph& cg, const ColorOptions& opts,
                          std::vector<std::int32_t>& module,
                          std::vector<bool>& decided,
                          const std::vector<bool>& never_remove,
                          std::vector<std::size_t>& load, AssignWorkspace& ws,
                          ColorResult& result) {
  PARMEM_SPAN("assign.speculate");
  PARMEM_FAULT_POINT("assign.speculate", opts.budget);
  SpeculateStats& stats = result.speculative;

  const std::size_t k = opts.module_count;
  const graph::Graph& g = cg.graph();
  const std::size_t n = g.vertex_count();
  const std::uint32_t full_mask =
      k >= 32 ? ~0u : (1u << static_cast<std::uint32_t>(k)) - 1u;
  const std::size_t chunk = std::max<std::size_t>(1, opts.speculate_chunk);

  // Deterministic half-share of the caller's remaining allowance. All
  // charges below happen serially at round boundaries, so the trip point —
  // and therefore the fall-back decision — is a pure function of the input
  // for a step budget, independent of the chunk size.
  support::Budget* const parent = opts.budget;
  std::optional<support::Budget> sub;
  if (parent != nullptr) {
    if (!parent->poll()) {
      ++stats.fallbacks;
      PARMEM_COUNTER_ADD("assign.speculative.fallbacks", 1);
      return false;
    }
    sub.emplace(parent->fraction_of_remaining(1, 2), parent);
  }

  // The atom's undecided vertices in vertex-id order. Chunks are contiguous
  // id ranges: conflict edges come from values co-live in a window of the
  // access stream, and stream order assigns nearby ids to nearby values, so
  // an id-contiguous chunk keeps most of its members' edges internal —
  // where the per-chunk dynamic-urgency sweep (phase A) resolves them with
  // the sequential heap's own triage. Urgency ordering still governs the
  // serial tail and the rescue decisions; id order only sets chunk
  // membership and the cross-chunk conflict priority.
  std::vector<Vertex> order(ws.rest);
  std::sort(order.begin(), order.end());

  std::vector<std::uint32_t> pos(n, 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

  // Per-round urgency and surviving-option mask, recomputed in phase A from
  // the committed state (pure per-vertex functions of the round start).
  std::vector<std::uint64_t> urg_w(n, 0);
  std::vector<std::uint32_t> urg_kk(n, 0);
  std::vector<std::uint32_t> free_mask(n, 0);

  // Per-vertex speculative state. Everything here is local to this call:
  // nothing escapes until the final commit, which keeps the fall-back path
  // free of cleanup.
  std::vector<std::int32_t> spec_color(n, kUnassignedModule);
  std::vector<std::int32_t> tentative(n, kUnassignedModule);
  std::vector<std::uint8_t> is_pending(n, 0);
  std::vector<std::uint8_t> win(n, 0);
  std::vector<std::uint8_t> defer(n, 0);
  std::vector<std::uint32_t> losses(n, 0);
  for (const Vertex v : order) is_pending[v] = 1;

  std::vector<std::size_t> load_now(load);
  std::vector<Vertex> pending(order);
  std::vector<Vertex> next_pending;
  std::vector<Vertex> removal_order;
  std::vector<Vertex> forced_order;

  // Committed module of a neighbor: a speculative commit (including forced
  // picks) or a decision from an earlier atom / stage.
  const auto committed_module = [&](Vertex w) -> std::int32_t {
    const std::int32_t c = spec_color[w];
    return c >= 0 ? c : module[w];
  };

  // A whole independent set commits per round, so a pending vertex can lose
  // several modules to non-conflicting neighbors at once — something the
  // one-commit-at-a-time sequential heap never suffers. Two guards keep the
  // removal pattern close to sequential, where saturation falls on the
  // cheap-to-duplicate low-urgency vertices:
  //  - a loser down to its last kRescueAt modules commits serially at the
  //    barrier instead of waiting out another round;
  //  - a winner defers (phase B pass 2) when its pick would consume one of
  //    the last kProtectAt modules of an endangered lower-position loser,
  //    steering commits away from those vertices' remaining options.
  constexpr std::uint32_t kRescueAt = 1;
  constexpr std::uint32_t kProtectAt = 2;

  // Out-of-options finalization: force never-remove vertices into the
  // cheapest conflicting module (sequential sweep's cost rule), remove the
  // rest. Shared by the round barrier and the serial tail below.
  const auto finalize = [&](Vertex v) {
    is_pending[v] = 0;
    if (!never_remove.empty() && never_remove[v]) {
      const std::uint32_t best =
          cheapest_module(cg, v, committed_module, load_now, k);
      spec_color[v] = static_cast<std::int32_t>(best);
      ++load_now[best];
      forced_order.push_back(v);
    } else {
      removal_order.push_back(v);  // V_unassigned
    }
  };

  std::uint64_t rounds = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t repaired = 0;
  std::uint64_t chunks_dispatched = 0;
  bool aborted = false;

  while (!pending.empty()) {
    // Round-boundary budget settlement: one unit plus the degree per pending
    // vertex — the neighborhood scans phases A and B are about to do.
    if (sub.has_value()) {
      std::uint64_t cost = 0;
      for (const Vertex v : pending) cost += 1 + g.degree(v);
      if (!sub->charge(cost)) {
        aborted = true;
        break;
      }
    }
    ++rounds;
    const std::size_t nchunks = (pending.size() + chunk - 1) / chunk;
    chunks_dispatched += nchunks;
    // Chunk membership for phase A's intra-chunk visibility test; doubles as
    // the conflict-resolution priority in phases B and C (pending stays
    // id-sorted, so lower position == lower vertex id).
    for (std::uint32_t i = 0; i < pending.size(); ++i) pos[pending[i]] = i;

    // Phase A (per chunk): each chunk runs the Fig. 4 dynamic-urgency sweep
    // restricted to its own vertices — pop the most urgent unprocessed
    // member, pick it a module, propagate the pick to its intra-chunk
    // neighbors' taken-masks and urgency numerators, repeat. The chunk is a
    // miniature sequential coloring: a member saturating inside the chunk
    // outranks its neighbors *before* its last modules disappear, the same
    // triage the sequential heap performs, and intra-chunk neighbors never
    // collide, so the only conflicts left for phase B are cross-chunk
    // edges. A chunk touches chunk-local state plus per-vertex slots of its
    // own members (cross-chunk picks stay invisible until the barrier), so
    // the round is a pure function of (round-start state, chunk size).
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(pending.size(), lo + chunk);
      const std::size_t cn = hi - lo;
      // Per-member taken-mask and urgency numerator, seeded with one
      // neighborhood scan against the committed state: the initial Σ wt
      // over already-decided neighbors plus the speculative commits so far
      // (wt(u→v) = 0 while deg(u) < k, else conf(u, v)).
      std::vector<std::uint32_t> taken_l(cn, 0);
      std::vector<std::uint64_t> w_l(cn, 0);
      std::vector<std::uint8_t> done(cn, 0);
      std::array<std::size_t, kMaxModules> load_l{};
      for (std::uint32_t m = 0; m < k; ++m) load_l[m] = load_now[m];
      for (std::size_t i = 0; i < cn; ++i) {
        const Vertex v = pending[lo + i];
        std::uint32_t taken = 0;
        std::uint64_t w = ws.w_assigned[v];
        const auto nbrs = g.neighbors(v);
        const auto wts = cg.conf_weights(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const Vertex u = nbrs[j];
          const std::int32_t m = committed_module(u);
          if (m < 0) continue;
          taken |= 1u << static_cast<std::uint32_t>(m);
          if (spec_color[u] >= 0 && ws.deg[u] >= k) w += wts[j];
        }
        taken_l[i] = taken;
        w_l[i] = w;
      }
      // DSATUR-style bucket queue approximating the Fig. 4 pop order:
      // priority is the member's current option count (fewest modules left
      // = most urgent — the dominant factor of U = w/kk), lazily
      // maintained: a member is re-pushed whenever a propagated pick drops
      // its count, stale entries are skipped on pop. A member down to zero
      // options pops before anything else, the sequential heap's
      // "infinitely urgent" rule. O(1) per operation and no comparator
      // calls — the chunk sweep must stay cheaper per vertex than the
      // global heap it speculates for, which a real w/kk heap is not.
      const auto kk_of = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            std::popcount(full_mask & ~taken_l[i]));
      };
      // Buckets pop LIFO, so seeding them in ascending static-weight order
      // makes the heavy vertices pop first within a priority level — the
      // sequential sweep's tie-break, which commits the expensive vertices
      // early and lets saturation fall on the cheap-to-duplicate tail.
      std::vector<std::uint32_t> seed_order(cn);
      for (std::size_t i = 0; i < cn; ++i) {
        seed_order[i] = static_cast<std::uint32_t>(i);
      }
      std::sort(seed_order.begin(), seed_order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const std::uint64_t sa = ws.s_sum[pending[lo + a]];
                  const std::uint64_t sb = ws.s_sum[pending[lo + b]];
                  if (sa != sb) return sa < sb;
                  return a > b;
                });
      std::vector<std::vector<std::uint32_t>> buckets(k + 1);
      for (const std::uint32_t i : seed_order) {
        buckets[kk_of(i)].push_back(i);
      }
      for (std::size_t step = 0; step < cn; ++step) {
        std::size_t bi = cn;
        for (std::uint32_t b = 0; b <= k && bi == cn; ++b) {
          auto& bucket = buckets[b];
          while (!bucket.empty()) {
            const std::uint32_t i = bucket.back();
            bucket.pop_back();
            if (done[i] != 0 || kk_of(i) != b) continue;  // stale
            bi = i;
            break;
          }
        }
        PARMEM_CHECK(bi < cn, "speculative chunk bucket queue drained early");
        done[bi] = 1;
        const Vertex v = pending[lo + bi];
        const std::uint32_t free = full_mask & ~taken_l[bi];
        urg_w[v] = w_l[bi];
        urg_kk[v] = static_cast<std::uint32_t>(std::popcount(free));
        free_mask[v] = free;
        if (free == 0) {
          tentative[v] = kUnassignedModule;  // re-checked live in phase C
          continue;
        }
        std::uint32_t picked;
        if (opts.pick == ModulePick::kLowestIndex && losses[v] == 0) {
          picked = static_cast<std::uint32_t>(std::countr_zero(free));
        } else {
          // kLeastLoaded (and every repair re-pick): choose among the free
          // modules with minimal load — the round-start snapshot plus this
          // chunk's own picks — hash-rotating the tie so chunks working
          // from the shared snapshot spread instead of herding onto one
          // module. Pure function of (v, losses, chunk state).
          std::uint32_t cands = free;
          if (opts.pick == ModulePick::kLeastLoaded) {
            std::size_t min_load = SIZE_MAX;
            for (std::uint32_t m = 0; m < k; ++m) {
              if ((free & (1u << m)) != 0) {
                min_load = std::min(min_load, load_l[m]);
              }
            }
            cands = 0;
            for (std::uint32_t m = 0; m < k; ++m) {
              if ((free & (1u << m)) != 0 && load_l[m] == min_load) {
                cands |= 1u << m;
              }
            }
          }
          support::SplitMix64 h(static_cast<std::uint64_t>(v) *
                                    0x9e3779b97f4a7c15ULL +
                                losses[v]);
          const auto ncands =
              static_cast<std::uint32_t>(std::popcount(cands));
          picked = nth_set_bit(cands,
                               static_cast<std::uint32_t>(h.below(ncands)));
        }
        tentative[v] = static_cast<std::int32_t>(picked);
        ++load_l[picked];
        // Propagate to unprocessed intra-chunk neighbors (the chunk test
        // gates every cross-chunk slot before it is read).
        const auto nbrs = g.neighbors(v);
        const auto wts = cg.conf_weights(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const Vertex u = nbrs[j];
          if (is_pending[u] == 0) continue;
          const std::uint32_t p = pos[u];
          if (p / chunk != c) continue;
          const std::size_t ui = p - lo;
          if (done[ui] != 0) continue;
          const std::uint32_t taken_before = taken_l[ui];
          taken_l[ui] |= 1u << picked;
          if (ws.deg[v] >= k) w_l[ui] += wts[j];
          if (taken_l[ui] != taken_before) {
            buckets[kk_of(ui)].push_back(ui);
          }
        }
      }
    }

    // Serial barrier. Urgency triage already happened inside the chunks, so
    // pending keeps its id order (pos is current from the loop top); the
    // barrier only needs to know whether the protection pass has anything
    // to protect.
    bool any_endangered = false;
    for (const Vertex v : pending) {
      any_endangered |= tentative[v] >= 0 && urg_kk[v] <= kProtectAt;
    }

    // Phase B pass 1: a vertex keeps its pick iff no
    // lower-position neighbor picked the same module this round.
    std::vector<std::uint64_t> chunk_conflicts(nchunks, 0);
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(pending.size(), lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        const Vertex v = pending[i];
        defer[v] = 0;
        const std::int32_t tc = tentative[v];
        if (tc < 0) {
          win[v] = 1;  // finalization always resolves
          continue;
        }
        bool lose = false;
        for (const Vertex u : g.neighbors(v)) {
          if (is_pending[u] != 0 && tentative[u] == tc && pos[u] < pos[v]) {
            lose = true;
            break;
          }
        }
        win[v] = lose ? 0 : 1;
        if (lose) ++chunk_conflicts[c];
      }
    }

    // Phase B pass 2: protection. A pass-1 winner defers when a
    // lower-position pending loser is down to its last kProtectAt modules and
    // the winner's pick is one of them — committing would push a vertex
    // that is expensive to duplicate toward removal while a cheaper,
    // less urgent one could yield instead. Reads only pass-1 state (win is
    // never written here; deferrals land in `defer`), so the pass's
    // outcome does not depend on the chunk visiting order.
    if (any_endangered) {
      for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(pending.size(), lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) {
          const Vertex v = pending[i];
          const std::int32_t tc = tentative[v];
          if (tc < 0 || win[v] == 0) continue;
          const auto protects = [&](Vertex u) {
            return tentative[u] >= 0 && win[u] == 0 && pos[u] < pos[v] &&
                   urg_kk[u] <= kProtectAt &&
                   ((free_mask[u] >> static_cast<std::uint32_t>(tc)) & 1u) !=
                       0;
          };
          bool yield = false;
          for (const Vertex u : g.neighbors(v)) {
            if (is_pending[u] != 0 && protects(u)) {
              yield = true;
              break;
            }
          }
          if (yield) {
            defer[v] = 1;
            ++chunk_conflicts[c];
          }
        }
      }
    }
    for (const std::uint64_t c : chunk_conflicts) conflicts += c;

    // Phase C (serial barrier, position order): commit winners, finalize
    // saturated vertices, rescue endangered losers, carry the rest into
    // the next round.
    next_pending.clear();
    // A repair commit below may install a module that differs from the
    // vertex's tentative pick — phase B never saw it, so any later winner
    // holding that module must be demoted to the repair path itself or it
    // would commit a real conflict.
    const auto invalidate_pick = [&](Vertex v, std::int32_t m) {
      for (const Vertex u : g.neighbors(v)) {
        if (is_pending[u] != 0 && tentative[u] == m) win[u] = 0;
      }
    };
    for (const Vertex v : pending) {
      const std::int32_t tc = tentative[v];
      if (tc >= 0 && win[v] != 0 && defer[v] == 0) {
        is_pending[v] = 0;
        spec_color[v] = tc;
        ++load_now[static_cast<std::uint32_t>(tc)];
        if (losses[v] > 0) ++repaired;
      } else {
        // Loser, deferral, or saturated in phase A (tc < 0 — possibly only
        // speculatively, by same-chunk picks that then lost, so even that
        // case recomputes live instead of finalizing outright).
        // Recompute the surviving option set
        // against the *current* committed state — including this barrier's
        // earlier commits, which the chunk phases could not see. A loser
        // that is out of options finalizes now; one inside the rescue
        // guard commits serially with the sequential pick rule (waiting out
        // another round could erase its last modules); the rest
        // re-enter the next round. Position order means a lower-id vertex
        // is rescued before a higher-id one recomputes, so when two
        // endangered neighbors want the same last module the resolution is
        // fixed by the schedule, not by timing.
        ++losses[v];
        std::uint32_t taken = 0;
        for (const Vertex u : g.neighbors(v)) {
          const std::int32_t m = committed_module(u);
          if (m >= 0) taken |= 1u << static_cast<std::uint32_t>(m);
        }
        const std::uint32_t free = full_mask & ~taken;
        if (free == 0) {
          finalize(v);
          if (spec_color[v] >= 0) invalidate_pick(v, spec_color[v]);  // forced
        } else if (static_cast<std::uint32_t>(std::popcount(free)) <=
                   kRescueAt) {
          std::uint32_t best =
              static_cast<std::uint32_t>(std::countr_zero(free));
          if (opts.pick == ModulePick::kLeastLoaded) {
            for (std::uint32_t m = best + 1; m < k; ++m) {
              if ((free & (1u << m)) != 0 && load_now[m] < load_now[best]) {
                best = m;
              }
            }
          }
          is_pending[v] = 0;
          spec_color[v] = static_cast<std::int32_t>(best);
          ++load_now[best];
          ++repaired;
          if (static_cast<std::int32_t>(best) != tc) {
            invalidate_pick(v, static_cast<std::int32_t>(best));
          }
        } else {
          next_pending.push_back(v);
        }
      }
    }
    PARMEM_CHECK(next_pending.size() < pending.size(),
                 "speculative coloring round resolved nothing");
    pending.swap(next_pending);
    // Hand the tail to the serial finisher below once the survivors are a
    // minority: they sit in the saturated regions where round-granularity
    // commits cost the most quality, and a small pending set no longer
    // amortizes two full passes per round anyway.
    if (pending.size() * 2 < order.size()) break;
  }

  // Serial tail: finish the surviving minority with the sequential rule —
  // one vertex at a time in urgency order against the live committed state,
  // so saturation falls where the sequential sweep would let it fall.
  if (!aborted && !pending.empty()) {
    if (sub.has_value()) {
      std::uint64_t cost = 0;
      for (const Vertex v : pending) cost += 1 + g.degree(v);
      if (!sub->charge(cost)) aborted = true;
    }
    if (!aborted) {
      std::sort(pending.begin(), pending.end(), [&](Vertex a, Vertex b) {
        return less_urgent({urg_w[b], urg_kk[b], ws.s_sum[b], b},
                           {urg_w[a], urg_kk[a], ws.s_sum[a], a});
      });
      for (const Vertex v : pending) {
        std::uint32_t taken = 0;
        for (const Vertex u : g.neighbors(v)) {
          const std::int32_t m = committed_module(u);
          if (m >= 0) taken |= 1u << static_cast<std::uint32_t>(m);
        }
        const std::uint32_t free = full_mask & ~taken;
        if (free == 0) {
          finalize(v);
          continue;
        }
        std::uint32_t best =
            static_cast<std::uint32_t>(std::countr_zero(free));
        if (opts.pick == ModulePick::kLeastLoaded) {
          for (std::uint32_t m = best + 1; m < k; ++m) {
            if ((free & (1u << m)) != 0 && load_now[m] < load_now[best]) {
              best = m;
            }
          }
        }
        is_pending[v] = 0;
        spec_color[v] = static_cast<std::int32_t>(best);
        ++load_now[best];
        if (losses[v] > 0) ++repaired;
      }
      pending.clear();
    }
  }

  // Reclaim post-pass (removal order): optimistic rounds saturate
  // more vertices than the one-commit-at-a-time sequential sweep, and every
  // removal costs duplicated copies downstream. For each removed vertex,
  // look for a module held by exactly one speculatively committed neighbor
  // that can itself move to a module free for it; swap it away and claim
  // the slot. Both moves preserve conflict-freedom, and the pass is a no-op
  // on atoms without removals.
  std::uint64_t reclaimed = 0;
  if (!aborted && !removal_order.empty()) {
    bool charged = true;
    if (sub.has_value()) {
      const std::uint64_t cost = n + 2 * g.edge_count() +
                                 32 * static_cast<std::uint64_t>(
                                          removal_order.size());
      charged = sub->charge(cost);
      aborted = !charged;
    }
    if (charged) {
      // Exact committed-neighbor counts per (vertex, module), maintained
      // incrementally as swaps commit, so every availability test below is
      // O(k). Only the rows of vertices this call colors are built: the
      // pass reads no other row, and the caller's `module` may be stale
      // outside the atom.
      std::vector<std::uint16_t> cnt(n * k, 0);
      for (const Vertex x : order) {
        for (const Vertex u : g.neighbors(x)) {
          const std::int32_t m = committed_module(u);
          if (m >= 0) ++cnt[x * k + static_cast<std::uint32_t>(m)];
        }
      }
      const auto avail_of = [&](Vertex x) {
        std::uint32_t mask = 0;
        const std::uint16_t* row = &cnt[static_cast<std::size_t>(x) * k];
        for (std::uint32_t m = 0; m < k; ++m) {
          if (row[m] == 0) mask |= 1u << m;
        }
        return mask;
      };
      // Exactly one committed neighbor holds m (cnt == 1); find it.
      const auto holder_of = [&](Vertex v, std::uint32_t m) {
        for (const Vertex u : g.neighbors(v)) {
          if (committed_module(u) == static_cast<std::int32_t>(m)) return u;
        }
        PARMEM_CHECK(false, "reclaim holder count out of sync");
        return v;
      };
      const auto pick_dst = [&](std::uint32_t mask) {
        std::uint32_t best =
            static_cast<std::uint32_t>(std::countr_zero(mask));
        if (opts.pick == ModulePick::kLeastLoaded) {
          for (std::uint32_t m = best + 1; m < k; ++m) {
            if ((mask & (1u << m)) != 0 && load_now[m] < load_now[best]) {
              best = m;
            }
          }
        }
        return best;
      };
      const auto move_to = [&](Vertex u, std::uint32_t from,
                               std::uint32_t to) {
        spec_color[u] = static_cast<std::int32_t>(to);
        --load_now[from];
        ++load_now[to];
        for (const Vertex x : g.neighbors(u)) {
          --cnt[static_cast<std::size_t>(x) * k + from];
          ++cnt[static_cast<std::size_t>(x) * k + to];
        }
      };
      const auto commit_to = [&](Vertex v, std::uint32_t m) {
        spec_color[v] = static_cast<std::int32_t>(m);
        ++load_now[m];
        for (const Vertex x : g.neighbors(v)) {
          ++cnt[static_cast<std::size_t>(x) * k + m];
        }
      };
      const auto uncommit = [&](Vertex u, std::uint32_t from) {
        spec_color[u] = kUnassignedModule;
        --load_now[from];
        for (const Vertex x : g.neighbors(u)) {
          --cnt[static_cast<std::size_t>(x) * k + from];
        }
      };
      // Exchange trial (see below): walk module m's holders inside N(v),
      // relocating each to a free module (no cost) or evicting it (its own,
      // smaller duplication bill). Trials run against the live cnt table so
      // holder interactions — adjacent holders competing for the same
      // destinations — are priced exactly, then roll back. Returns the
      // eviction bill, or UINT64_MAX if infeasible / not strictly under
      // `limit`. With keep == true the moves stand, the evicted vertices
      // rejoin the queue, and v claims m.
      struct ExchangeStep {
        Vertex u;
        std::uint32_t from;
        std::int32_t to;  // < 0: evicted
      };
      std::vector<ExchangeStep> xlog;
      std::vector<Vertex> holders;
      const auto try_exchange = [&](Vertex v, std::uint32_t m,
                                    std::uint64_t limit,
                                    bool keep) -> std::uint64_t {
        holders.clear();
        for (const Vertex u : g.neighbors(v)) {
          if (committed_module(u) == static_cast<std::int32_t>(m)) {
            holders.push_back(u);
          }
        }
        xlog.clear();
        std::uint64_t cost = 0;
        bool ok = true;
        for (const Vertex u : holders) {
          if (spec_color[u] < 0) {
            ok = false;  // decided by an earlier atom or stage: immovable
            break;
          }
          const std::uint32_t mask = avail_of(u) & ~(1u << m);
          if (mask != 0) {
            const std::uint32_t dst = pick_dst(mask);
            move_to(u, m, dst);
            xlog.push_back({u, m, static_cast<std::int32_t>(dst)});
          } else if (never_remove.empty() || !never_remove[u]) {
            // max(S, 1): a zero-weight eviction still costs one unit, so
            // Σ max(S, 1) over the removal list strictly decreases with
            // every accepted exchange and chains cannot cycle.
            cost += std::max<std::uint64_t>(ws.s_sum[u], 1);
            if (cost >= limit) {
              ok = false;
              break;
            }
            uncommit(u, m);
            xlog.push_back({u, m, -1});
          } else {
            ok = false;
            break;
          }
        }
        if (!ok || !keep) {
          for (auto it = xlog.rbegin(); it != xlog.rend(); ++it) {
            if (it->to < 0) {
              commit_to(it->u, it->from);
            } else {
              move_to(it->u, static_cast<std::uint32_t>(it->to), it->from);
            }
          }
          return ok ? cost : UINT64_MAX;
        }
        for (const ExchangeStep& a : xlog) {
          if (a.to < 0) removal_order.push_back(a.u);
        }
        commit_to(v, m);
        return cost;
      };
      const std::size_t removed_before = removal_order.size();
      std::vector<Vertex> still_removed;
      // Index loop: evictions (below) append to removal_order, and the
      // evicted vertex gets its own rescue attempt.
      for (std::size_t ri = 0; ri < removal_order.size(); ++ri) {
        const Vertex v = removal_order[ri];
        const std::uint16_t* vrow =
            &cnt[static_cast<std::size_t>(v) * k];
        bool rescued = false;
        // A module freed entirely by earlier swaps: just take it.
        {
          const std::uint32_t mask = avail_of(v);
          if (mask != 0) {
            commit_to(v, pick_dst(mask));
            rescued = true;
          }
        }
        // Depth 1: one blocking neighbor that can step aside.
        for (std::uint32_t m = 0; m < k && !rescued; ++m) {
          if (vrow[m] != 1) continue;
          const Vertex u = holder_of(v, m);
          // Only vertices this call committed may move; decisions from
          // earlier atoms or stages stay fixed.
          if (spec_color[u] < 0) continue;
          const std::uint32_t mask = avail_of(u) & ~(1u << m);
          if (mask == 0) continue;
          move_to(u, m, pick_dst(mask));
          commit_to(v, m);
          rescued = true;
        }
        // Depth 2: the blocker is itself blocked by exactly one vertex
        // that can step aside — an augmenting chain of two moves. The
        // chain's destinations exclude both freed modules, so each hop
        // lands conflict-free and v's claim stays valid.
        for (std::uint32_t m = 0; m < k && !rescued; ++m) {
          if (vrow[m] != 1) continue;
          const Vertex u = holder_of(v, m);
          if (spec_color[u] < 0) continue;
          const std::uint16_t* urow =
              &cnt[static_cast<std::size_t>(u) * k];
          for (std::uint32_t m2 = 0; m2 < k && !rescued; ++m2) {
            if (m2 == m || urow[m2] != 1) continue;
            const Vertex x = holder_of(u, m2);
            if (spec_color[x] < 0) continue;
            const std::uint32_t mask =
                avail_of(x) & ~(1u << m2) & ~(1u << m);
            if (mask == 0) continue;
            move_to(x, m2, pick_dst(mask));
            move_to(u, m, m2);
            commit_to(v, m);
            rescued = true;
          }
        }
        if (rescued) continue;
        // Exchange: the duplication bill lands on strictly cheaper
        // neighbors. Price every module's holder set with a rolled-back
        // trial, then execute the cheapest one that undercuts S(v); ties
        // go to the lowest module index. Σ S over the removal list
        // strictly decreases with every accepted exchange (relocations are
        // free, evictions are each cheaper than v), so the appended
        // re-attempts terminate.
        std::uint64_t best_cost = std::max<std::uint64_t>(ws.s_sum[v], 1);
        std::uint32_t best_m = static_cast<std::uint32_t>(k);
        for (std::uint32_t m = 0; m < k; ++m) {
          if (vrow[m] == 0) continue;
          const std::uint64_t cost = try_exchange(v, m, best_cost, false);
          if (cost < best_cost) {
            best_cost = cost;
            best_m = m;
            if (cost == 0) break;  // free rescue, nothing can beat it
          }
        }
        if (best_m < k) {
          try_exchange(v, best_m, best_cost + 1, true);
        } else {
          still_removed.push_back(v);
        }
      }
      reclaimed += removed_before - still_removed.size();
      removal_order.swap(still_removed);
    }
  }

  stats.rounds += rounds;
  stats.chunks += chunks_dispatched;
  stats.conflicts += conflicts;
  stats.repaired += repaired;
  stats.reclaimed += reclaimed;
  PARMEM_COUNTER_ADD("assign.speculative.rounds", rounds);
  PARMEM_COUNTER_ADD("assign.speculative.chunks", chunks_dispatched);
  PARMEM_COUNTER_ADD("assign.speculative.conflicts", conflicts);
  PARMEM_COUNTER_ADD("assign.speculative.repaired", repaired);
  PARMEM_COUNTER_ADD("assign.speculative.reclaimed", reclaimed);

  if (aborted) {
    // Share exhausted (or parent tripped): discard everything. The parent
    // was only charged at round boundaries, so the sequential fall-back
    // resumes from a deterministic remainder.
    ++stats.fallbacks;
    PARMEM_COUNTER_ADD("assign.speculative.fallbacks", 1);
    return false;
  }

  // Commit. Position order for the per-module loads is already baked into
  // load_now; the result lists keep their finalization order.
  for (const Vertex v : order) {
    decided[v] = true;
    module[v] = spec_color[v];
  }
  for (const Vertex v : removal_order) result.unassigned.push_back(v);
  for (const Vertex v : forced_order) result.forced.push_back(v);
  load = std::move(load_now);
  ++stats.atoms;
  PARMEM_COUNTER_ADD("assign.speculative.atoms", 1);
  return true;
}

}  // namespace parmem::assign
