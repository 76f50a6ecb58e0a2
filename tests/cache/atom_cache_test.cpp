// AtomCache key shape (cache/atom_cache.h): the journal store's shared
// cases (tests/support/journal_cases.h) run through AtomCache, the check
// hash as a collision guard that survives a restart, and the end-to-end
// assigner integration: a warm restart over the journal reproduces a
// from-scratch compile byte for byte.
#include "cache/atom_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "../support/journal_cases.h"
#include "assign/assigner.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"

namespace parmem::cache {
namespace {

namespace cases = support::journal_cases;
using assign::MemoKind;

// Every shared case runs under the one kind, with the key doubling as
// check.
struct AtomShape {
  using Store = AtomCache;
  static void put(Store& s, std::uint64_t key, std::string_view payload) {
    s.store(MemoKind::kDecomposition, key, key, payload);
  }
  static std::optional<std::string> get(Store& s, std::uint64_t key) {
    return s.lookup(MemoKind::kDecomposition, key, key);
  }
  static std::string path(const Store& s, std::uint64_t key) {
    return s.entry_path(MemoKind::kDecomposition, key);
  }
};

using AtomCacheTest = cases::TempDirTest;

TEST_F(AtomCacheTest, MemoryOnlyRoundTrip) {
  cases::memory_only_round_trip<AtomShape>();
}
TEST_F(AtomCacheTest, FirstWriterWins) { cases::first_writer_wins<AtomShape>(); }
TEST_F(AtomCacheTest, JournalSurvivesARestart) {
  cases::survives_a_restart<AtomShape>(dir_);
}
TEST_F(AtomCacheTest, TornAndTruncatedEntriesAreSkippedNotFatal) {
  cases::damaged_entries_are_skipped<AtomShape>(dir_);
}
TEST_F(AtomCacheTest, TempOrphansFromAKilledStoreAreIgnored) {
  cases::temp_orphans_are_ignored<AtomShape>(dir_);
}
TEST_F(AtomCacheTest, UnusableDirectoryDegradesToMemoryOnly) {
  cases::unusable_directory_degrades_to_memory_only<AtomShape>(dir_);
}
TEST_F(AtomCacheTest, LruEvictionCapsEntriesAndUnlinksJournalFiles) {
  cases::lru_eviction_caps_entries_and_unlinks_files<AtomShape>(dir_);
}
TEST_F(AtomCacheTest, WarmRestartRebuildsRecencyFromMtime) {
  cases::warm_restart_rebuilds_recency_from_mtime<AtomShape>(dir_);
}

TEST_F(AtomCacheTest, CheckHashMismatchIsAMissNotACollision) {
  AtomCache cache;
  cache.store(MemoKind::kDecomposition, 9, /*check=*/111, "payload");
  // Same 64-bit key, different secondary hash: a key collision between two
  // different closures. Must read as a miss, never the wrong payload.
  EXPECT_FALSE(cache.lookup(MemoKind::kDecomposition, 9, 222).has_value());
  EXPECT_EQ(cache.stats().check_mismatches, 1u);
  // First writer wins: the stored entry is untouched.
  EXPECT_EQ(cache.lookup(MemoKind::kDecomposition, 9, 111).value(),
            "payload");

  // The check is journaled with the payload, so the guard survives a
  // restart.
  {
    AtomCache cold(dir_str());
    cold.store(MemoKind::kDecomposition, 9, 111, "atoms");
  }
  AtomCache warm(dir_str());
  EXPECT_FALSE(warm.lookup(MemoKind::kDecomposition, 9, 222).has_value());
  EXPECT_EQ(warm.lookup(MemoKind::kDecomposition, 9, 111).value(), "atoms");
}

// End-to-end: a compile populates the journal; a *new process* (modelled by
// a fresh AtomCache over the same directory) recompiles an edited stream
// and must produce bytes identical to a from-scratch compile, reusing the
// decomposition from disk.
TEST_F(AtomCacheTest, WarmRestartCompileIsByteIdenticalAndReusesAtoms) {
  workloads::ModularStreamOptions g;
  g.block_count = 6;
  g.values_per_block = 64;
  g.tuples_per_block = 150;
  support::SplitMix64 rng(0x5eedULL);
  const ir::AccessStream base = workloads::modular_stream(g, rng);

  // Edit: duplicate a handful of tuples from one block's interior. The
  // duplicates double some conflict weights inside the block without adding
  // edges, so the graph's structure, and with it the decomposition, stays.
  ir::AccessStream edited = base;
  int added = 0;
  for (std::size_t t = 0; t < base.tuples.size() && added < 4; ++t) {
    bool inside = true;
    for (const ir::ValueId op : base.tuples[t].operands) {
      inside = inside && op >= 1 * 64 + 8 && op < 2 * 64 - 8;
    }
    if (inside) {
      edited.tuples.push_back(base.tuples[t]);
      ++added;
    }
  }
  ASSERT_EQ(added, 4);

  assign::AssignOptions opts;
  opts.module_count = 4;

  const assign::AssignResult scratch = assign::assign_modules(edited, opts);

  {
    AtomCache cold(dir_str());
    assign::AssignOptions mo = opts;
    mo.memo_store = &cold;
    assign::assign_modules(base, mo);  // prime the journal
    EXPECT_GT(cold.stats().stores, 0u);
  }

  AtomCache warm(dir_str());
  EXPECT_GT(warm.stats().loaded, 0u);
  assign::AssignOptions mo = opts;
  mo.memo_store = &warm;
  const assign::AssignResult inc = assign::assign_modules(edited, mo);

  EXPECT_EQ(inc.placement, scratch.placement);
  EXPECT_EQ(inc.removed, scratch.removed);
  EXPECT_EQ(inc.stats.memo_decomp_hits, 1u);
  EXPECT_EQ(inc.stats.memo_decomp_misses, 0u);
}

}  // namespace
}  // namespace parmem::cache
