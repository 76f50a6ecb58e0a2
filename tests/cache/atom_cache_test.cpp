// AtomCache key shape (cache/atom_cache.h): a restart round trip through
// the shape's entry files (the journal store's own behaviours run in
// tests/support/journal_test.cpp), the check hash as a collision guard
// that survives a restart, and the end-to-end assigner integration: a warm
// restart over the journal reproduces a from-scratch compile byte for byte,
// and an undecodable entry is replaced on disk.
#include "cache/atom_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "../support/journal_cases.h"
#include "assign/assigner.h"
#include "support/file_io.h"
#include "support/fnv.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"

namespace parmem::cache {
namespace {

namespace cases = support::journal_cases;
using assign::MemoKind;

// The shared case runs under the one kind, with the key doubling as check.
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

TEST_F(AtomCacheTest, JournalSurvivesARestart) {
  cases::survives_a_restart<AtomShape>(dir_);
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

// Six blocks of 64 values: a graph with several clique-separator atoms.
ir::AccessStream modular_base() {
  workloads::ModularStreamOptions g;
  g.block_count = 6;
  g.values_per_block = 64;
  g.tuples_per_block = 150;
  support::SplitMix64 rng(0x5eedULL);
  return workloads::modular_stream(g, rng);
}

// End-to-end: a compile populates the journal; a *new process* (modelled by
// a fresh AtomCache over the same directory) recompiles an edited stream
// and must produce bytes identical to a from-scratch compile, reusing the
// decomposition from disk.
TEST_F(AtomCacheTest, WarmRestartCompileIsByteIdenticalAndReusesAtoms) {
  const ir::AccessStream base = modular_base();

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

// A journaled decomposition that is a well-formed journal record but not a
// decomposition (a huge atom count) is a miss, and the compile replaces
// it: the next compile reuses the fresh entry, and after a flush the file
// holds exactly what a clean journal would.
TEST_F(AtomCacheTest, UndecodableDecompositionIsReplacedOnDisk) {
  const ir::AccessStream base = modular_base();
  assign::AssignOptions opts;
  opts.module_count = 4;
  const assign::AssignResult scratch = assign::assign_modules(base, opts);

  {
    AtomCache cold(dir_str());
    assign::AssignOptions mo = opts;
    mo.memo_store = &cold;
    assign::assign_modules(base, mo);
    cold.flush();
    ASSERT_EQ(cold.size(), 1u);
  }
  std::string path;
  for (const auto& f : std::filesystem::directory_iterator(dir_)) {
    path = f.path().string();
  }
  const std::string good = support::read_file(path).value();

  // Same header fields (kind, check); the payload's atom count is 2^64 - 1.
  const std::string poison(8, '\xff');
  unsigned kind = 0;
  unsigned long long check = 0;
  ASSERT_EQ(std::sscanf(good.c_str(), "parmem-journal 1 %u %llx", &kind,
                        &check),
            2);
  char head[96];
  std::snprintf(head, sizeof head, "parmem-journal 1 %u %016llx %zu %016llx\n",
                kind, check, poison.size(),
                static_cast<unsigned long long>(support::fnv1a64(poison)));
  ASSERT_TRUE(support::write_file_atomic(path, head + poison));

  AtomCache warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 1u);
  assign::AssignOptions mo = opts;
  mo.memo_store = &warm;
  const assign::AssignResult poisoned = assign::assign_modules(base, mo);
  EXPECT_EQ(poisoned.placement, scratch.placement);
  EXPECT_EQ(poisoned.stats.memo_decomp_hits, 0u);
  EXPECT_EQ(poisoned.stats.memo_decomp_misses, 1u);

  const assign::AssignResult next = assign::assign_modules(base, mo);
  EXPECT_EQ(next.placement, scratch.placement);
  EXPECT_EQ(next.stats.memo_decomp_hits, 1u);
  warm.flush();
  EXPECT_EQ(support::read_file(path).value(), good);
}

}  // namespace
}  // namespace parmem::cache
