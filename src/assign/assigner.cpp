#include "assign/assigner.h"

#include <algorithm>
#include <optional>

#include <bit>

#include "assign/backtrack.h"
#include "assign/conflict_graph.h"
#include "assign/exact.h"
#include "assign/hitting_set_approach.h"
#include "assign/placement_state.h"
#include "assign/workspace.h"
#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace parmem::assign {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kStor1: return "STOR1";
    case Strategy::kStor2: return "STOR2";
    case Strategy::kStor3: return "STOR3";
  }
  PARMEM_UNREACHABLE("bad strategy");
}

const char* dup_method_name(DupMethod m) {
  switch (m) {
    case DupMethod::kBacktracking: return "backtracking";
    case DupMethod::kHittingSet: return "hitting-set";
  }
  PARMEM_UNREACHABLE("bad duplication method");
}

const char* tier_name(AssignTier t) {
  switch (t) {
    case AssignTier::kExact: return "exact";
    case AssignTier::kHeuristic: return "heuristic";
    case AssignTier::kSpeculateFallback: return "speculate-fallback";
    case AssignTier::kHittingSet: return "hitting-set";
    case AssignTier::kBacktrackCap: return "backtrack-cap";
    case AssignTier::kResidual: return "residual";
  }
  PARMEM_UNREACHABLE("bad assign tier");
}

namespace {

/// Hard node cap for the kBacktrackCap fix-up: enough to resolve typical
/// instructions (k! for k <= 7), small enough that a whole-stream sweep
/// stays linear after the budget is gone.
constexpr std::uint64_t kFixupNodeCap = 4096;

struct PassContext {
  const ir::AccessStream* stream;
  const AssignOptions* opts;
  PlacementState* st;
  std::vector<bool>* decided;   // per value: binding fixed by some pass
  std::vector<bool>* removed;   // per value: member of V_unassigned
  std::vector<std::size_t>* module_load;
  support::SplitMix64* rng;
  AssignStats* stats;
  AssignWorkspace* ws;  // pass-level scratch, reused across passes
  AssignTier* tier;     // weakest ladder tier used so far (result-level)
  bool* exhausted;      // result-level budget_exhausted flag
};

void degrade(PassContext& ctx, AssignTier t) {
  *ctx.tier = std::max(*ctx.tier, t);
}

/// The configured duplication method over one instruction set, mutating
/// `st` and drawing from `rng`. `exhausted` is true iff the budget tripped
/// and the method stopped early (the caller runs the capped fix-up).
struct DupOutcome {
  bool exhausted = false;
  std::size_t rounds = 0;  // hitting-set rounds
};
DupOutcome run_duplication(const PassContext& ctx, InstSpan insts,
                           PlacementState& st, support::SplitMix64& rng,
                           AssignWorkspace* ws) {
  switch (ctx.opts->method) {
    case DupMethod::kBacktracking: {
      const auto out = backtrack_duplicate(st, insts, *ctx.removed,
                                           ctx.stream->duplicatable, rng, ws);
      return {out.budget_exhausted, 0};
    }
    case DupMethod::kHittingSet: {
      const auto out = hitting_set_duplicate(st, insts, *ctx.removed,
                                             ctx.stream->duplicatable, rng,
                                             ws);
      return {out.budget_exhausted, out.rounds};
    }
  }
  PARMEM_UNREACHABLE("bad duplication method");
}

/// Moves v[i] to position dest[i] for every i.
void permute(std::vector<std::vector<ir::ValueId>>& v,
             std::vector<std::uint32_t> dest) {
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    while (dest[i] != i) {
      const std::uint32_t j = dest[i];
      std::swap(v[i], v[j]);
      std::swap(dest[i], dest[j]);
    }
  }
}

/// Runs the duplication phase one atom at a time. Every instruction's
/// operand set is pairwise conflicting — a clique of the pass's conflict
/// graph — and clique-separator decomposition never splits a clique, so each
/// instruction lives entirely inside some atom; instructions contained in
/// several atoms (wholly inside a separator) go to the earliest one in
/// processing order. `insts` is stably regrouped by atom in place, so each
/// atom gets a contiguous slice, and restored to stream order before
/// returning. Each atom works on a scratch placement state exact at its
/// operand values — the only entries the duplication kernels read — draws
/// from its own seeded RNG, and can only *add* copies; added copies never
/// invalidate an SDR, so resolutions from different atoms compose, and
/// each atom's added copies are a pure function of its slice, merged in
/// stable atom order.
bool duplicate_atoms(PassContext& ctx,
                     std::vector<std::vector<ir::ValueId>>& insts,
                     const ConflictGraph& cg,
                     const std::vector<std::vector<graph::Vertex>>& atoms) {
  const ir::AccessStream& stream = *ctx.stream;
  const std::size_t count = atoms.size();

  std::vector<std::vector<std::uint32_t>> member(cg.vertex_count());
  for (std::uint32_t a = 0; a < count; ++a) {
    for (const graph::Vertex v : atoms[a]) member[v].push_back(a);
  }
  const auto member_of =
      [&](ir::ValueId value) -> const std::vector<std::uint32_t>& {
    return member[static_cast<std::size_t>(cg.vertex_of(value))];
  };

  // Owning atom per instruction: the first atom holding every operand,
  // found by narrowing one reused candidate list in place. `count` marks
  // the residual group, which theory says stays empty. first[a] ..
  // first[a + 1] is group a's slice.
  std::vector<std::uint32_t> owner(insts.size());
  std::vector<std::uint32_t> first(count + 2, 0);
  std::vector<std::uint32_t> cand;
  for (std::size_t t = 0; t < insts.size(); ++t) {
    const auto& ops = insts[t];
    cand = member_of(ops[0]);
    for (std::size_t i = 1; i < ops.size() && !cand.empty(); ++i) {
      const auto& row = member_of(ops[i]);
      std::size_t kept = 0;
      for (const std::uint32_t a : cand) {
        if (std::binary_search(row.begin(), row.end(), a)) cand[kept++] = a;
      }
      cand.resize(kept);
    }
    owner[t] = cand.empty() ? static_cast<std::uint32_t>(count) : cand.front();
    ++first[owner[t] + 1];
  }
  for (std::size_t a = 0; a <= count; ++a) first[a + 1] += first[a];
  std::vector<std::uint32_t> dest(insts.size());
  std::vector<std::uint32_t> origin(insts.size());
  {
    std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
    for (std::uint32_t t = 0; t < insts.size(); ++t) {
      dest[t] = next[owner[t]]++;
      origin[dest[t]] = t;
    }
  }
  permute(insts, std::move(dest));
  const auto group = [&](std::size_t a) {
    return InstSpan(insts).subspan(first[a], first[a + 1] - first[a]);
  };

  // One pass-RNG draw seeds every atom stream, keeping the pass stream's
  // consumption independent of the atom count.
  const std::uint64_t base_seed = ctx.rng->next();
  // Copies the atoms add, applied only after the loop: every atom reads the
  // placements as they stood before it.
  std::vector<std::pair<ir::ValueId, ModuleSet>> added;
  bool exhausted = false;
  PlacementState& local = ctx.ws->placement_scratch;
  std::vector<ir::ValueId> values;
  std::vector<std::uint32_t> seen_in(stream.value_count, 0);  // atom + 1
  for (std::size_t i = 0; i < count; ++i) {
    const InstSpan slice = group(i);
    if (slice.empty()) continue;
    PARMEM_SPAN("assign.dup_atom");
    // The slice's distinct operand values, ascending: deduplicated by a
    // per-atom stamp, so only the distinct ones are sorted.
    values.clear();
    for (const auto& ops : slice) {
      for (const ir::ValueId v : ops) {
        if (seen_in[v] == i + 1) continue;
        seen_in[v] = static_cast<std::uint32_t>(i + 1);
        values.push_back(v);
      }
    }
    std::sort(values.begin(), values.end());
    local.refresh_from(*ctx.st, values);
    support::SplitMix64 rng(base_seed + i);
    const DupOutcome out = run_duplication(ctx, slice, local, rng, ctx.ws);
    ctx.stats->duplication_rounds += out.rounds;
    exhausted = exhausted || out.exhausted;
    for (const ir::ValueId v : values) {
      const ModuleSet extra = local.placement(v) & ~ctx.st->placement(v);
      if (extra != 0) added.emplace_back(v, extra);
    }
  }
  for (const auto& [v, extra] : added) {
    for (const std::uint32_t m : modules_of(extra)) ctx.st->add_copy(v, m);
  }
  if (!group(count).empty()) {
    const DupOutcome out =
        run_duplication(ctx, group(count), *ctx.st, *ctx.rng, ctx.ws);
    ctx.stats->duplication_rounds += out.rounds;
    exhausted = exhausted || out.exhausted;
  }
  permute(insts, std::move(origin));
  return exhausted;
}

/// One assignment pass over a set of instructions (operand lists already
/// filtered for the strategy stage): color the undecided values, then run
/// the configured duplication method.
void run_pass(PassContext& ctx, std::vector<std::vector<ir::ValueId>> insts) {
  if (insts.empty()) return;
  const ir::AccessStream& stream = *ctx.stream;
  const AssignOptions& opts = *ctx.opts;
  PARMEM_FAULT_POINT("assign.pass", opts.budget);

  const ConflictGraph cg = [&] {
    PARMEM_SPAN("assign.conflict_graph");
    return ConflictGraph::build_from_insts(stream.value_count, insts);
  }();
  const std::size_t n = cg.vertex_count();
  if (n == 0) return;

  // "Conflicts before": the access-conflict graph this pass must color
  // away. Edge count and total conf weight feed the paper's Tables 1–2
  // accounting; the derivation loop is telemetry-only work (a preprocessor
  // guard, not if constexpr, so the OFF build has no unused locals).
#if PARMEM_TELEMETRY_ENABLED
  {
    PARMEM_COUNTER_ADD("assign.conflict_edges", cg.graph().edge_count());
    std::uint64_t weight = 0;
    for (graph::Vertex v = 0; v < n; ++v) weight += cg.conf_sum(v);
    PARMEM_COUNTER_ADD("assign.conflict_weight", weight / 2);
  }
#endif

  std::vector<std::int32_t> precolored(n, kUnassignedModule);
  std::vector<bool> never_remove(n, false);
  std::vector<bool> skip(n, false);  // previously removed: stay removed
  for (graph::Vertex v = 0; v < n; ++v) {
    const ir::ValueId id = cg.value_of(v);
    never_remove[v] = !stream.duplicatable[id];
    if ((*ctx.decided)[id]) {
      if ((*ctx.removed)[id]) {
        skip[v] = true;  // keeps its copies; duplication may add more
      } else {
        // Fix the existing binding: the lowest-index copy. (A value decided
        // in an earlier stage may have several copies; constraining
        // neighbors against one of them is conservative but sound — the
        // run-time fetch still picks distinct representatives.)
        const auto mods = modules_of(ctx.st->placement(id));
        PARMEM_CHECK(!mods.empty(), "decided value without a copy");
        precolored[v] = static_cast<std::int32_t>(mods[0]);
      }
    }
  }

  // Previously removed vertices must not be re-colored: mark them decided by
  // pre-coloring trick is wrong (they have no single module), so give the
  // heuristic a reduced graph instead: we temporarily pre-color them as
  // "unassigned" by filtering them out of this pass's instructions.
  bool any_skip = false;
  for (graph::Vertex v = 0; v < n; ++v) any_skip = any_skip || skip[v];

  const ColorOptions copts{opts.module_count, opts.use_atoms, opts.pick,
                           opts.budget, opts.speculate_threshold,
                           opts.speculate_chunk, opts.memo_store};
  ColorResult cr;
  if (!any_skip) {
    PARMEM_SPAN("assign.color");
    cr = color_conflict_graph(cg, copts, precolored, never_remove,
                              ctx.module_load, ctx.ws);
  } else {
    PARMEM_SPAN("assign.color");
    // Rebuild instructions without the already-removed values; their
    // conflicts are handled by the duplication phase below.
    std::vector<std::vector<ir::ValueId>> reduced;
    reduced.reserve(insts.size());
    for (const auto& ops : insts) {
      std::vector<ir::ValueId> keep;
      keep.reserve(ops.size());
      for (const ir::ValueId v : ops) {
        const auto vx = cg.vertex_of(v);
        if (vx < 0 || !skip[static_cast<std::size_t>(vx)]) keep.push_back(v);
      }
      if (!keep.empty()) reduced.push_back(std::move(keep));
    }
    const ConflictGraph cg2 =
        ConflictGraph::build_from_insts(stream.value_count, reduced);
    const std::size_t n2 = cg2.vertex_count();
    std::vector<std::int32_t> pre2(n2, kUnassignedModule);
    std::vector<bool> nr2(n2, false);
    for (graph::Vertex v = 0; v < n2; ++v) {
      const ir::ValueId id = cg2.value_of(v);
      nr2[v] = !stream.duplicatable[id];
      const auto vx = cg.vertex_of(id);
      PARMEM_CHECK(vx >= 0, "reduced vertex missing from full graph");
      pre2[v] = precolored[static_cast<std::size_t>(vx)];
    }
    const ColorResult cr2 = color_conflict_graph(
        cg2, copts, pre2, nr2, ctx.module_load, ctx.ws);
    cr.budget_exhausted = cr2.budget_exhausted;
    cr.speculative = cr2.speculative;
    cr.memo_decomp_hits = cr2.memo_decomp_hits;
    cr.memo_decomp_misses = cr2.memo_decomp_misses;
    // Map back onto the full-graph indexing.
    cr.module.assign(n, kUnassignedModule);
    for (graph::Vertex v = 0; v < n2; ++v) {
      const auto vx = cg.vertex_of(cg2.value_of(v));
      cr.module[static_cast<std::size_t>(vx)] = cr2.module[v];
    }
    for (const graph::Vertex v : cr2.unassigned) {
      cr.unassigned.push_back(static_cast<graph::Vertex>(
          cg.vertex_of(cg2.value_of(v))));
    }
    for (const graph::Vertex v : cr2.forced) {
      cr.forced.push_back(static_cast<graph::Vertex>(
          cg.vertex_of(cg2.value_of(v))));
    }
  }

  // Commit coloring decisions for values not decided before.
  for (graph::Vertex v = 0; v < n; ++v) {
    const ir::ValueId id = cg.value_of(v);
    if ((*ctx.decided)[id]) continue;
    if (skip[v]) continue;
    if (!cr.module.empty() && cr.module[v] >= 0) {
      ctx.st->add_copy(id, static_cast<std::uint32_t>(cr.module[v]));
      (*ctx.decided)[id] = true;
    }
  }
  for (const graph::Vertex v : cr.unassigned) {
    const ir::ValueId id = cg.value_of(v);
    if (!(*ctx.decided)[id]) {
      (*ctx.removed)[id] = true;
      (*ctx.decided)[id] = true;
      ++ctx.stats->unassigned_after_coloring;
    }
  }
  ctx.stats->forced += cr.forced.size();
  ctx.stats->speculative_rounds += cr.speculative.rounds;
  ctx.stats->speculative_conflicts += cr.speculative.conflicts;
  ctx.stats->speculative_repaired += cr.speculative.repaired;
  ctx.stats->speculative_fallbacks += cr.speculative.fallbacks;
  ctx.stats->memo_decomp_hits += cr.memo_decomp_hits;
  ctx.stats->memo_decomp_misses += cr.memo_decomp_misses;
  if (cr.speculative.fallbacks > 0) {
    // The speculative tier burned its budget share and was discarded; the
    // sequential heuristic produced this pass's coloring. Quality is intact
    // but the compile paid for work it threw away — record the degradation
    // so callers (and the assign.fallback_tier gauge) can see it.
    *ctx.exhausted = true;
    degrade(ctx, AssignTier::kSpeculateFallback);
  }

  // Duplication phase over this pass's instructions, partitioned along the
  // coloring's atoms (the skip branch above leaves cr.atoms empty, so later
  // STOR2/3 passes over previously reduced graphs run it as one group).
  PARMEM_FAULT_POINT("assign.duplicate", opts.budget);
  bool dup_exhausted = false;
  {
    PARMEM_SPAN("assign.duplicate");
    if (cr.atoms.size() > 1) {
      dup_exhausted = duplicate_atoms(ctx, insts, cg, cr.atoms);
    } else {
      const DupOutcome out =
          run_duplication(ctx, insts, *ctx.st, *ctx.rng, ctx.ws);
      ctx.stats->duplication_rounds += out.rounds;
      dup_exhausted = out.exhausted;
    }
  }

  // Degradation ladder, below the full-effort tier. A tripped coloring was
  // finished greedily (kHittingSet quality at best); a tripped duplication
  // leaves conflicting instructions for the capped Fig. 6 fix-up
  // (kBacktrackCap) — hard node cap, no budget consultation, so the sweep
  // terminates; anything still conflicting is accepted as residual.
  const bool pass_exhausted = cr.budget_exhausted || dup_exhausted;
  if (pass_exhausted) {
    *ctx.exhausted = true;
    degrade(ctx, AssignTier::kHittingSet);
  }
  if (dup_exhausted) {
    bool capped = false;
    bool residual = false;
    for (const auto& ops : insts) {
      if (ctx.st->combination_conflict_free(ops)) continue;
      capped = true;
      const auto added = resolve_instruction(
          *ctx.st, ops, stream.duplicatable, *ctx.rng,
          /*budget=*/nullptr, kFixupNodeCap);
      if (!added.has_value()) residual = true;
    }
    if (capped) degrade(ctx, AssignTier::kBacktrackCap);
    if (residual) degrade(ctx, AssignTier::kResidual);
  }

  // Safety net: every value seen in this pass must end with >= 1 copy. On
  // the degraded path copyless values are parked in module 0 (deterministic
  // and cheap); the unbudgeted path keeps the legacy seeded draw.
  for (const auto& ops : insts) {
    for (const ir::ValueId v : ops) {
      if (ctx.st->copies(v) == 0) {
        if (pass_exhausted) {
          ctx.st->add_copy(v, 0);
        } else {
          ctx.st->add_copy(v, static_cast<std::uint32_t>(
                                  ctx.rng->below(opts.module_count)));
        }
        (*ctx.decided)[v] = true;
      }
    }
  }
}

std::vector<std::vector<ir::ValueId>> materialize(
    const ir::AccessStream& stream, const std::vector<std::uint32_t>& tuples,
    const std::vector<bool>* value_filter) {
  std::vector<std::vector<ir::ValueId>> insts;
  insts.reserve(tuples.size());
  for (const std::uint32_t ti : tuples) {
    const std::vector<ir::ValueId>& operands = stream.tuples[ti].operands;
    std::vector<ir::ValueId> ops;
    ops.reserve(operands.size());
    for (const ir::ValueId v : operands) {
      if (value_filter == nullptr || (*value_filter)[v]) ops.push_back(v);
    }
    if (!ops.empty()) insts.push_back(std::move(ops));
  }
  return insts;
}

}  // namespace

AssignResult assign_modules(const ir::AccessStream& stream,
                            const AssignOptions& opts) {
  PARMEM_SPAN("assign.total");
  PARMEM_CHECK(opts.module_count >= 1 && opts.module_count <= kMaxModules,
               "module count out of range");
  PARMEM_CHECK(stream.duplicatable.size() == stream.value_count &&
                   stream.global.size() == stream.value_count,
               "stream metadata size mismatch");

  PlacementState st(stream, opts.module_count);
  std::vector<bool> decided(stream.value_count, false);
  std::vector<bool> removed(stream.value_count, false);
  std::vector<std::size_t> module_load(opts.module_count, 0);
  support::SplitMix64 rng(opts.seed);
  AssignWorkspace workspace;  // pass-level scratch shared by every pass below
  workspace.budget = opts.budget;

  AssignResult result;
  result.module_count = opts.module_count;
  PassContext ctx{&stream,       &opts, &st,           &decided,
                  &removed,      &module_load, &rng,   &result.stats,
                  &workspace,    &result.tier, &result.budget_exhausted};

  std::vector<std::uint32_t> all_tuples(stream.tuples.size());
  for (std::uint32_t i = 0; i < all_tuples.size(); ++i) all_tuples[i] = i;

  // Optional exact tier: try the branch-and-bound oracle on a half-share of
  // the remaining budget. On success the whole heuristic pipeline is
  // skipped; on failure (too large, node cap, budget trip) nothing has been
  // committed and the ladder continues at kHeuristic with the other half.
  bool exact_done = false;
  if (opts.try_exact && opts.module_count <= 16) {
    std::size_t used_values = 0;
    {
      std::vector<bool> used(stream.value_count, false);
      for (const auto& t : stream.tuples) {
        for (const ir::ValueId v : t.operands) {
          if (!used[v]) {
            used[v] = true;
            ++used_values;
          }
        }
      }
    }
    bool mutable_used = false;  // never duplicate mutables: heuristic only
    for (ir::ValueId v = 0; v < stream.value_count; ++v) {
      if (!stream.duplicatable[v]) mutable_used = true;
    }
    if (used_values <= opts.exact_value_limit && !mutable_used) {
      PARMEM_SPAN("assign.exact");
      std::optional<support::Budget> sub;
      support::Budget* eb = opts.budget;
      if (opts.budget != nullptr) {
        sub.emplace(opts.budget->fraction_of_remaining(1, 2), opts.budget);
        eb = &*sub;
      }
      const std::uint64_t cap =
          opts.exact_node_budget != 0 ? opts.exact_node_budget : 20'000'000;
      const auto ex = exact_min_copies(stream, opts.module_count, cap, eb);
      if (ex.has_value()) {
        for (ir::ValueId v = 0; v < stream.value_count; ++v) {
          for (const std::uint32_t m : modules_of(ex->placement[v])) {
            st.add_copy(v, m);
          }
        }
        result.tier = AssignTier::kExact;
        exact_done = true;
      }
      if (eb != nullptr && eb->exhausted()) result.budget_exhausted = true;
    }
  }

  if (exact_done) {
    // fall through to the common statistics below
  } else switch (opts.strategy) {
    case Strategy::kStor1: {
      run_pass(ctx, materialize(stream, all_tuples, nullptr));
      break;
    }
    case Strategy::kStor2: {
      // Stage 1: bind the values live across regions. In the paper's
      // compiler this stage runs before the regions are examined, so it is
      // essentially conflict-blind: "during the allocation of storage for
      // global variables, very few conflicts are considered, for the
      // majority of operands for an instruction are data values local to a
      // region". We model it as a balanced, conflict-blind spread — which
      // is exactly why STOR2 ends up duplicating more than STOR1/STOR3
      // (Table 1's published shape). The informed variant colors globals
      // against the global-filtered view of every instruction first.
      if (opts.stor2_informed_stage1) {
        run_pass(ctx, materialize(stream, all_tuples, &stream.global));
      }
      {
        std::vector<bool> used(stream.value_count, false);
        for (const auto& t : stream.tuples) {
          for (const ir::ValueId v : t.operands) used[v] = true;
        }
        for (ir::ValueId v = 0; v < stream.value_count; ++v) {
          if (!used[v] || !stream.global[v] || decided[v]) continue;
          std::uint32_t best = 0;
          for (std::uint32_t m = 1; m < opts.module_count; ++m) {
            if (module_load[m] < module_load[best]) best = m;
          }
          st.add_copy(v, best);
          ++module_load[best];
          decided[v] = true;
        }
      }
      // Stage 2: one region at a time, full operand lists, globals fixed.
      std::vector<ir::RegionId> region_order;
      std::vector<std::vector<std::uint32_t>> by_region;
      for (std::uint32_t i = 0; i < stream.tuples.size(); ++i) {
        const ir::RegionId r = stream.tuples[i].region;
        auto it = std::find(region_order.begin(), region_order.end(), r);
        if (it == region_order.end()) {
          region_order.push_back(r);
          by_region.emplace_back();
          it = region_order.end() - 1;
        }
        by_region[static_cast<std::size_t>(it - region_order.begin())]
            .push_back(i);
      }
      for (const auto& tuples : by_region) {
        run_pass(ctx, materialize(stream, tuples, nullptr));
      }
      break;
    }
    case Strategy::kStor3: {
      const std::size_t w = std::max<std::size_t>(1, opts.stor3_windows);
      const std::size_t total = all_tuples.size();
      for (std::size_t win = 0; win < w; ++win) {
        const std::size_t lo = win * total / w;
        const std::size_t hi = (win + 1) * total / w;
        if (lo == hi) continue;
        const std::vector<std::uint32_t> tuples(all_tuples.begin() + lo,
                                                all_tuples.begin() + hi);
        run_pass(ctx, materialize(stream, tuples, nullptr));
      }
      break;
    }
  }

  // Final statistics over values that occur in the stream.
  std::vector<bool> used(stream.value_count, false);
  for (const auto& t : stream.tuples) {
    for (const ir::ValueId v : t.operands) used[v] = true;
  }
  for (ir::ValueId v = 0; v < stream.value_count; ++v) {
    if (!used[v]) continue;
    ++result.stats.values_used;
    const std::size_t c = st.copies(v);
    if (c == 1) {
      ++result.stats.single_copy;
    } else if (c > 1) {
      ++result.stats.multi_copy;
    }
    result.stats.total_copies += c;
  }
  // Residual conflicts measured over the whole stream (a pass counts only
  // its own unresolved instructions; windows can interact).
  result.stats.residual_conflict_tuples = st.conflicting_tuples().size();

  result.placement = st.placements();
  result.removed = std::move(removed);

  if (opts.memo_store != nullptr) {
    PARMEM_COUNTER_ADD("assign.incremental.decomp_reused",
                       result.stats.memo_decomp_hits);
  }

  // The paper's evaluation counters, once per assignment. Conflicts-before
  // (assign.conflict_edges/_weight) accumulate per pass in run_pass;
  // residual_conflict_tuples is "conflicts after".
#if PARMEM_TELEMETRY_ENABLED
  {
    const AssignStats& s = result.stats;
    PARMEM_COUNTER_ADD("assign.values_used", s.values_used);
    PARMEM_COUNTER_ADD("assign.copies_total", s.total_copies);
    PARMEM_COUNTER_ADD("assign.copies_inserted",
                       s.total_copies - (s.single_copy + s.multi_copy));
    PARMEM_COUNTER_ADD("assign.v_unassigned", s.unassigned_after_coloring);
    PARMEM_COUNTER_ADD("assign.forced", s.forced);
    PARMEM_COUNTER_ADD("assign.residual_conflict_tuples",
                       s.residual_conflict_tuples);
    PARMEM_COUNTER_ADD("assign.duplication_rounds", s.duplication_rounds);
    ModuleSet any = 0;
    for (const ModuleSet m : result.placement) any |= m;
    PARMEM_GAUGE_SET("assign.colors_used", std::popcount(any));
  }
#endif
  if (result.budget_exhausted) {
    PARMEM_COUNTER_ADD("assign.budget_exhausted", 1);
  }
  PARMEM_GAUGE_SET("assign.fallback_tier",
                   static_cast<std::int64_t>(result.tier));
  return result;
}

}  // namespace parmem::assign
