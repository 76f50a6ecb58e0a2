// Incremental recompilation: atom-granular memoization of the assignment
// pipeline (DESIGN.md §13).
//
// The paper's clique-separator atoms are a natural incremental unit: every
// atom interior is colored as a pure function of (its subgraph, the
// separator frontier snapshot, the load snapshot, the options), and the
// per-atom duplication tasks are pure
// functions of (their instruction partition, the placement/removed state of
// the values they mention, a seed). This header exposes that purity as a
// memo: each unit of work is keyed by an FNV-1a hash of its *entire input
// closure* and its output delta is journaled in an AtomMemoStore. A
// recompile after an edit replays the deltas of every atom whose closure is
// unchanged and recomputes only the dirty ones.
//
// What falls out of closure hashing, without any explicit diffing:
//
//  * clean-atom reuse — an untouched atom's closure hash is unchanged, so
//    its color and duplication deltas replay verbatim;
//  * the invalidation frontier — an edit that changes a separator vertex's
//    color changes the frontier snapshot hashed into every neighboring
//    atom's closure, so exactly the dirty atom *plus the separator-touching
//    neighbors* recompute (misses whose atom content was seen before are
//    counted as `frontier` in the stats);
//  * whole-decomposition reuse — MCS-M and the clique-separator split read
//    only the graph *structure*, so the decomposition is memoized under a
//    structure-only hash and a weight-only edit (changed access counts,
//    same value pairs) skips the dominant MCS-M cost entirely.
//
// Determinism contract: a memo hit is byte-identical to recomputation by
// construction — the key covers every input the unit reads, so equal key
// (with the secondary verification hash, ~128 bits effective) implies equal
// output. The memo therefore composes with the existing golden-hash
// differential suites: assign_modules with a warm store produces exactly
// the bytes of a from-scratch run. Per-atom memos engage only with no
// budget (a budget trips at time-dependent points); the decomposition memo
// engages either way.
//
// Fallback rule: when fewer than `memo_min_hit_percent` of the first
// `memo_probe_window` per-atom probes hit, the session stops probing and
// runs the rest of the compile at full effort (store-only, so the journal
// still warms up) — a cold or heavily-invalidated cache must not pay
// hashing + lookup on every atom. Gating affects performance only, never
// output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "assign/assigner.h"
#include "assign/color_heuristic.h"
#include "assign/placement_state.h"
#include "graph/atoms.h"
#include "support/fnv.h"

namespace parmem::assign {

/// Record kinds journaled by an AtomMemoStore. Values are part of the
/// on-disk format — append, never renumber.
enum class MemoKind : std::uint8_t {
  kDecomposition = 1,  // structure hash -> ordered atom list
  kAtomColor = 2,      // color closure hash -> per-atom coloring delta
  kAtomDup = 3,        // duplication closure hash -> per-atom copy delta
  kAtomSeen = 4,       // content-only hash marker (frontier accounting)
};

const char* memo_kind_name(MemoKind k);

/// Storage interface for memoized per-atom results. Implementations must be
/// thread-safe: one store is shared across concurrent compiles (compile_batch
/// jobs, the service's workers).
/// `check` is a secondary hash over the same closure bytes; a record stored
/// under (kind, key) with a different check is a miss, which pushes the
/// effective collision resistance of the 64-bit key to ~128 bits.
/// cache::AtomCache is the persistent implementation.
class AtomMemoStore {
 public:
  virtual ~AtomMemoStore() = default;

  /// Payload for (kind, key) when present with a matching check.
  virtual std::optional<std::string> lookup(MemoKind kind, std::uint64_t key,
                                            std::uint64_t check) = 0;

  /// First-writer-wins insert (replays must stay byte-identical, so a
  /// (key, check) is only ever bound to one payload).
  virtual void store(MemoKind kind, std::uint64_t key, std::uint64_t check,
                     std::string_view payload) = 0;
};

/// Dual-accumulator FNV-1a 64: digest() is the primary key, check() an
/// independently-seeded secondary hash over the same bytes (the collision
/// guard stored with every record).
class ClosureHash {
 public:
  void add_u64(std::uint64_t v) {
    h_ = support::fnv1a_u64(h_, v);
    c_ = support::fnv1a_u64(c_, v);
  }
  void add_u32(std::uint32_t v) { add_u64(v); }
  void add_byte(unsigned char b) {
    h_ = support::fnv1a_byte(h_, b);
    c_ = support::fnv1a_byte(c_, b);
  }
  std::uint64_t digest() const { return h_; }
  std::uint64_t check() const { return c_; }

 private:
  std::uint64_t h_ = support::kFnvOffsetBasis;
  std::uint64_t c_ = 0x9e3779b97f4a7c15ULL;  // independent basis
};

/// One compile's memo state: the store plus the probe gate and the
/// counters. Created per assign_modules() call (cheap) and used only by the
/// thread running that compile, so it is never shared; the store outlives
/// sessions.
struct MemoSession {
  MemoSession(AtomMemoStore* s, std::size_t window, std::uint32_t min_percent)
      : store(s), probe_window(window), min_hit_percent(min_percent) {}

  AtomMemoStore* store;
  std::size_t probe_window;
  std::uint32_t min_hit_percent;

  /// Probe gate: true while per-atom lookups are worth issuing. Cleared
  /// once `probe_window` probes have hit below `min_hit_percent`.
  bool probing = true;
  std::uint64_t probes = 0;
  std::uint64_t probe_hits = 0;

  std::uint64_t decomp_hits = 0;
  std::uint64_t decomp_misses = 0;
  std::uint64_t color_hits = 0;
  std::uint64_t color_misses = 0;
  std::uint64_t dup_hits = 0;
  std::uint64_t dup_misses = 0;
  /// Color misses whose atom *content* was journaled before: the atom was
  /// clean but a neighbor's separator coloring changed — the invalidation
  /// frontier.
  std::uint64_t frontier = 0;
  /// Probe-gate trips (0 or 1 per session).
  std::uint64_t fallbacks = 0;

  /// Records a probe outcome and updates the gate.
  void note_probe(bool hit);
};

/// Per-atom coloring delta — the unit journaled under kAtomColor. Mirrors
/// exactly what the per-atom merge applies, so a replayed delta is
/// indistinguishable from a computed one.
struct ColorAtomDelta {
  std::vector<std::pair<graph::Vertex, std::int32_t>> colored;
  std::vector<graph::Vertex> unassigned;  // in removal order
  std::vector<graph::Vertex> forced;
  std::vector<std::size_t> load_delta;
  bool budget_exhausted = false;
  SpeculateStats spec;
};

/// Per-atom duplication delta — the unit journaled under kAtomDup.
struct DupAtomDelta {
  std::vector<std::pair<ir::ValueId, ModuleSet>> added;
  std::size_t rounds = 0;
  bool budget_exhausted = false;
};

// ---- hooks used by color_heuristic.cpp / assigner.cpp ----------------------

/// Memoized clique-separator decomposition: keyed on a structure-only hash
/// of the CSR graph (offsets + neighbor rows, no conf weights — MCS-M never
/// reads them). Falls back to computing and journaling on a miss.
std::vector<graph::Atom> memo_decompose(MemoSession& s,
                                        const ConflictGraph& cg);

/// Closure hash for one atom's coloring task: the atom's vertex rows and
/// weights, the module/decided frontier snapshot it can observe, the
/// never-remove flags, the full load snapshot, and the options that steer
/// the sweep. `content` receives the snapshot-free content hash used for
/// frontier accounting.
void color_closure_key(const ConflictGraph& cg,
                       const std::vector<graph::Vertex>& atom,
                       const ColorOptions& opts,
                       const std::vector<std::int32_t>& module,
                       const std::vector<bool>& decided,
                       const std::vector<bool>& never_remove,
                       const std::vector<std::size_t>& load,
                       std::uint64_t* key, std::uint64_t* check,
                       std::uint64_t* content);

/// Replays a journaled coloring delta into `out`. False on miss (including
/// gate-closed sessions and undecodable payloads).
bool memo_color_lookup(MemoSession& s, std::uint64_t key, std::uint64_t check,
                       std::uint64_t content, ColorAtomDelta* out);
void memo_color_store(MemoSession& s, std::uint64_t key, std::uint64_t check,
                      std::uint64_t content, const ColorAtomDelta& d);

/// Closure hash for one atom's duplication task: its instruction partition,
/// the placement/removed/duplicatable state of every value those
/// instructions mention, the task seed, and the method configuration.
void dup_closure_key(InstSpan insts,
                     const PlacementState& st,
                     const std::vector<bool>& removed,
                     const std::vector<bool>& duplicatable,
                     std::uint64_t seed, std::size_t module_count,
                     DupMethod method, std::uint64_t* key,
                     std::uint64_t* check);

bool memo_dup_lookup(MemoSession& s, std::uint64_t key, std::uint64_t check,
                     DupAtomDelta* out);
void memo_dup_store(MemoSession& s, std::uint64_t key, std::uint64_t check,
                    const DupAtomDelta& d);

// ---- the incremental driver ------------------------------------------------

/// Configuration for assign_modules_incremental (the thin driver over
/// AssignOptions::memo_store).
struct IncrementalConfig {
  AtomMemoStore* store = nullptr;
  /// Probe gate: disable per-atom lookups when fewer than min_hit_percent
  /// of the first probe_window probes hit (cold / heavily dirty cache).
  std::size_t probe_window = 8;
  std::uint32_t min_hit_percent = 25;
};

/// Runs assign_modules with the memo store attached and the
/// `assign.incremental.*` telemetry emitted. Output is byte-identical to
/// assign_modules(stream, opts) for any store state; the memo statistics
/// land in AssignResult::stats (memo_* fields).
AssignResult assign_modules_incremental(const ir::AccessStream& stream,
                                        const AssignOptions& opts,
                                        const IncrementalConfig& cfg);

}  // namespace parmem::assign
