// Incremental recompilation: the clique-separator decomposition memo
// (DESIGN.md §13).
//
// MCS-M and the clique-separator split (§2.1) read only the conflict
// graph's *structure*: which value pairs conflict, not how often. So the
// decomposition is memoized under a structure-only hash of the CSR graph,
// journaled in an AtomMemoStore, and a recompile whose edit changes only
// access counts (the same value pairs, other conflict weights) skips MCS-M
// and the split entirely. Colouring and duplication always recompute.
//
// Determinism contract: a memo hit is byte-identical to recomputation by
// construction — the key covers the whole graph structure, the only input
// the decomposition reads, so equal key (with the secondary verification
// hash, ~128 bits effective) implies equal atoms. assign_modules with a
// warm store therefore produces exactly the bytes of a from-scratch run,
// and the memo engages under a budget too (nothing in the decomposition
// polls one).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "assign/conflict_graph.h"
#include "graph/atoms.h"
#include "support/fnv.h"

namespace parmem::assign {

/// Record kinds journaled by an AtomMemoStore. Values are part of the
/// on-disk format (the kind is part of each entry's file name) — append,
/// never renumber. 2, 3 and 4 held per-atom colouring deltas, duplication
/// deltas and seen-markers; they are retired and must never be reused, so
/// an old cache directory's entries of those kinds stay dead.
enum class MemoKind : std::uint8_t {
  kDecomposition = 1,  // structure hash -> ordered atom list
};

/// Storage interface for memoized results. Implementations must be
/// thread-safe: one store is shared across concurrent compiles (the
/// service's workers).
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

  /// Drops the entry under (kind, key), so the next store binds a fresh
  /// payload. Used when a resident payload fails to decode: first writer
  /// wins, so it would otherwise shadow every later store.
  virtual void erase(MemoKind kind, std::uint64_t key) = 0;
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

/// Memoized clique-separator decomposition: keyed on a structure-only hash
/// of the CSR graph (offsets + neighbor rows, no conf weights — MCS-M never
/// reads them). Computes and journals on a miss. A journaled payload that
/// is not a decomposition of this graph — undecodable, a vertex id out of
/// range or repeated within an atom, a vertex in no atom — is a miss too:
/// the store's directory is input from outside the program. Such an entry
/// is erased and replaced by the fresh encoding, so the next compile hits.
/// `*reused` reports whether the atoms came from the store.
std::vector<graph::Atom> memo_decompose(AtomMemoStore& store,
                                        const ConflictGraph& cg,
                                        bool* reused);

}  // namespace parmem::assign
