// Incremental recompilation differential suite (assign/incremental.h).
//
// The contract under test: assign_modules with a memo store attached — cold,
// warm, primed with a *different* stream's entries, or holding a damaged
// decomposition — produces bytes identical to a memo-less run. The
// paper-workload cells are additionally pinned to the golden hashes
// captured from the seed implementation (the same constants as
// csr_differential_test), so a memo hit that replays stale bytes cannot
// hide behind a self-consistent diff. On top of identity, the suite checks
// the reuse itself: warm runs and weight-only edits reuse the
// decomposition, foreign or damaged entries are misses, and a damaged
// entry is replaced.
#include "assign/incremental.h"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "result_hash.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::assign {
namespace {

// Minimal thread-safe in-memory store: the journal semantics (first-writer
// -wins, check-hash guard) without any filesystem behind them.
struct MapStore final : AtomMemoStore {
  std::optional<std::string> lookup(MemoKind kind, std::uint64_t key,
                                    std::uint64_t check) override {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = map.find({static_cast<int>(kind), key});
    if (it == map.end() || it->second.first != check) return std::nullopt;
    return it->second.second;
  }
  void store(MemoKind kind, std::uint64_t key, std::uint64_t check,
             std::string_view payload) override {
    std::lock_guard<std::mutex> lock(mu);
    map.emplace(std::tuple<int, std::uint64_t>{static_cast<int>(kind), key},
                std::pair<std::uint64_t, std::string>{check,
                                                      std::string(payload)});
  }
  void erase(MemoKind kind, std::uint64_t key) override {
    std::lock_guard<std::mutex> lock(mu);
    map.erase({static_cast<int>(kind), key});
  }
  std::mutex mu;
  std::map<std::tuple<int, std::uint64_t>,
           std::pair<std::uint64_t, std::string>>
      map;
};

ir::AccessStream paper_stream(const std::string& name) {
  const auto& w = workloads::workload(name);
  analysis::PipelineOptions o;
  o.sched.fu_count = 8;
  o.sched.module_count = 8;
  o.assign.module_count = 8;
  o.rename = true;
  return analysis::compile_mc(w.source, o).stream;
}

// The block-structured synthetic (see workloads::modular_stream): 30 atoms
// at this size, so clean-atom replay is observable. Used by the edit tests
// and the width sweep.
ir::AccessStream modular_base() {
  workloads::ModularStreamOptions g;
  g.block_count = 6;
  g.values_per_block = 64;
  g.tuples_per_block = 150;
  support::SplitMix64 rng(0x5eedULL);
  return workloads::modular_stream(g, rng);
}

// Duplicates `count` tuples whose operands all fall inside block `block`'s
// interior (the bridge cliques excluded). A weight-only edit: conflict
// weights inside the block grow, no new edges, no new values — the
// decomposition and every other block's atoms stay clean.
ir::AccessStream duplicate_block_interior(const ir::AccessStream& base,
                                          std::size_t block,
                                          std::size_t values_per_block,
                                          int count) {
  ir::AccessStream edited = base;
  int added = 0;
  const ir::ValueId lo =
      static_cast<ir::ValueId>(block * values_per_block + 8);
  const ir::ValueId hi =
      static_cast<ir::ValueId>((block + 1) * values_per_block - 8);
  for (std::size_t t = 0; t < base.tuples.size() && added < count; ++t) {
    bool inside = true;
    for (const ir::ValueId op : base.tuples[t].operands) {
      inside = inside && op >= lo && op < hi;
    }
    if (inside) {
      edited.tuples.push_back(base.tuples[t]);
      ++added;
    }
  }
  EXPECT_EQ(added, count) << "edit generator found too few interior tuples";
  return edited;
}

AssignResult run(const ir::AccessStream& stream, std::size_t k, int strategy,
                 int method, AtomMemoStore* store) {
  AssignOptions o;
  o.module_count = k;
  o.strategy = static_cast<Strategy>(strategy);
  o.method = static_cast<DupMethod>(method);
  o.memo_store = store;
  return assign_modules(stream, o);
}

struct GoldenRow {
  const char* stream;
  int strategy;
  int method;
  std::uint64_t golden_hash;  // k=4
};

// k=4 goldens captured from the seed implementation — the same
// constants as the matching rows of csr_differential_test's kGoldens.
const GoldenRow kGoldens[] = {
    {"TAYLOR1", 0, 1, 0x6b753649a8e08847ULL},
    {"TAYLOR1", 0, 0, 0x1b22015a0b2d0fc9ULL},
    {"TAYLOR2", 0, 1, 0x53097f4bc9631e30ULL},
    {"TAYLOR2", 0, 0, 0x53097f4bc9631e30ULL},
    {"EXACT", 0, 1, 0xe8140b347548d05aULL},
    {"EXACT", 0, 0, 0x09552c7788da0a13ULL},
    {"FFT", 0, 1, 0xb75f842d25097e9aULL},
    {"FFT", 0, 0, 0xc6025a8ce71dd83eULL},
    {"SORT", 0, 1, 0xb5f575231e38594eULL},
    {"SORT", 0, 0, 0xce33570c97ddf4b8ULL},
    {"COLOR", 0, 1, 0xc9270ad05a31126bULL},
    {"COLOR", 0, 0, 0xde771f6884943c77ULL},
    // STOR2 / STOR3 smoke rows.
    {"FFT", 1, 1, 0x12f3859e0619de11ULL},
    {"FFT", 2, 1, 0xf325cc4b20b523c6ULL},
    {"SORT", 1, 1, 0x821600ba241c1fe5ULL},
    {"SORT", 2, 1, 0x9f1eb08bfd4aa182ULL},
};

// Acceptance sweep: every paper workload against a cold store, then a warm
// one. Cold and warm runs must both land on the seed golden — the memo may
// only ever change *when* bytes are computed, never which bytes.
TEST(IncrementalDifferential, PaperWorkloadsMatchSeedGoldensColdAndWarm) {
  for (const GoldenRow& row : kGoldens) {
    const ir::AccessStream stream = paper_stream(row.stream);
    const std::string label = std::string(row.stream) +
                              " strat=" + std::to_string(row.strategy) +
                              " method=" + std::to_string(row.method);
    MapStore store;
    const AssignResult cold = run(stream, 4, row.strategy, row.method, &store);
    EXPECT_EQ(hash_result(cold), row.golden_hash) << label << " cold";
    const AssignResult warm = run(stream, 4, row.strategy, row.method, &store);
    EXPECT_EQ(hash_result(warm), row.golden_hash) << label << " warm";
    EXPECT_GT(warm.stats.memo_decomp_hits, 0u)
        << label << " warm run reused nothing";
  }
}

/// Runs body(0) .. body(n - 1) on n threads at once and joins them.
template <typename Body>
void on_threads(std::size_t n, Body body) {
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(body, i);
  for (std::thread& t : threads) t.join();
}

// The synthetic block stream compiled by 1/2/4 concurrent threads sharing
// one memo store, as the service's workers do: memo-less, cold, and warm
// runs all produce one result. The single memo-less run is the reference.
TEST(IncrementalDifferential, ModularSyntheticIdenticalAcrossWidths) {
  const ir::AccessStream stream = modular_base();
  const std::uint64_t ref = hash_result(run(stream, 4, 0, 1, nullptr));
  MapStore store;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    std::vector<std::uint64_t> memoless(workers), cold(workers),
        warm(workers);
    on_threads(workers, [&](std::size_t i) {
      memoless[i] = hash_result(run(stream, 4, 0, 1, nullptr));
    });
    on_threads(workers, [&](std::size_t i) {
      cold[i] = hash_result(run(stream, 4, 0, 1, &store));
    });
    on_threads(workers, [&](std::size_t i) {
      warm[i] = hash_result(run(stream, 4, 0, 1, &store));
    });
    for (std::size_t i = 0; i < workers; ++i) {
      EXPECT_EQ(memoless[i], ref) << "memo-less width " << workers;
      EXPECT_EQ(cold[i], ref) << "cold/warm width " << workers;
      EXPECT_EQ(warm[i], ref) << "warm width " << workers;
    }
  }
}

// An interior edit changes conflict weights, not the graph's structure:
// the recompile reuses the journaled decomposition, and the result still
// matches a from-scratch compile of the edited stream.
TEST(IncrementalDifferential, EditedStreamReusesCleanAtoms) {
  const ir::AccessStream base = modular_base();
  const ir::AccessStream edited =
      duplicate_block_interior(base, /*block=*/1, 64, 4);

  MapStore store;
  run(base, 4, 0, 1, &store);  // prime
  const AssignResult inc = run(edited, 4, 0, 1, &store);
  const AssignResult scratch = run(edited, 4, 0, 1, nullptr);

  EXPECT_EQ(inc.placement, scratch.placement);
  EXPECT_EQ(inc.removed, scratch.removed);
  EXPECT_EQ(hash_result(inc), hash_result(scratch));
  EXPECT_EQ(inc.stats.memo_decomp_hits, 1u);  // weight-only edit
  EXPECT_EQ(inc.stats.memo_decomp_misses, 0u);
}

// Every compile runs on the calling thread: repeat memo-less runs agree
// byte for byte, a cold store computes the decomposition and a warm one
// reuses it.
TEST(IncrementalDifferential, WarmStoreReusesTheDecomposition) {
  const ir::AccessStream stream = modular_base();
  const std::uint64_t ref = hash_result(run(stream, 4, 0, 1, nullptr));
  EXPECT_EQ(hash_result(run(stream, 4, 0, 1, nullptr)), ref);
  MapStore store;
  const AssignResult cold = run(stream, 4, 0, 1, &store);
  EXPECT_EQ(hash_result(cold), ref);
  EXPECT_EQ(cold.stats.memo_decomp_hits, 0u);
  EXPECT_EQ(cold.stats.memo_decomp_misses, 1u);
  const AssignResult warm = run(stream, 4, 0, 1, &store);
  EXPECT_EQ(hash_result(warm), ref);
  EXPECT_EQ(warm.stats.memo_decomp_hits, 1u);
  EXPECT_EQ(warm.stats.memo_decomp_misses, 0u);
}

// A store primed by one stream never contaminates another: the
// decomposition is keyed by the whole graph structure, so compiling a
// different stream against the warm store is a miss — and correct.
TEST(IncrementalDifferential, ForeignEntriesNeverLeakAcrossStreams) {
  const ir::AccessStream a = modular_base();
  workloads::ModularStreamOptions g;
  g.block_count = 5;
  g.values_per_block = 48;
  g.tuples_per_block = 120;
  support::SplitMix64 rng(0x0ddba11ULL);
  const ir::AccessStream b = workloads::modular_stream(g, rng);

  MapStore store;
  run(a, 4, 0, 1, &store);
  const AssignResult with_foreign = run(b, 4, 0, 1, &store);
  const AssignResult clean = run(b, 4, 0, 1, nullptr);
  EXPECT_EQ(hash_result(with_foreign), hash_result(clean));
  EXPECT_EQ(with_foreign.stats.memo_decomp_hits, 0u);
}

// A store whose every decomposition key starts out holding one fixed
// payload: the shape of a damaged or hostile atom-cache directory, which is
// input from outside the program. It keeps the journal's first-writer-wins
// rule, so a store under a key still holding the poison is dropped; only an
// erase frees the key for a fresh payload.
struct PoisonStore final : AtomMemoStore {
  explicit PoisonStore(std::string p) : payload(std::move(p)) {}
  std::optional<std::string> lookup(MemoKind kind, std::uint64_t key,
                                    std::uint64_t) override {
    if (kind != MemoKind::kDecomposition) return std::nullopt;
    if (!erased.contains(key)) return payload;
    const auto it = fresh.find(key);
    if (it == fresh.end()) return std::nullopt;
    return it->second;
  }
  void store(MemoKind, std::uint64_t key, std::uint64_t,
             std::string_view p) override {
    if (erased.contains(key)) fresh.emplace(key, std::string(p));
  }
  void erase(MemoKind, std::uint64_t key) override {
    erased.insert(key);
    fresh.erase(key);
  }
  std::string payload;
  std::set<std::uint64_t> erased;
  std::map<std::uint64_t, std::string> fresh;
};

// The little-endian u64 words of a journaled decomposition payload.
std::string words(std::initializer_list<std::uint64_t> ws) {
  std::string out;
  for (const std::uint64_t w : ws) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(w >> (8 * i)));
  }
  return out;
}

// Runs the modular stream against a poisoned store: the compile must read
// the payload as a miss and produce the memo-less bytes, and must replace
// the poison, so the next compile reuses the decomposition.
void expect_poison_is_a_miss(const std::string& payload) {
  const ir::AccessStream stream = modular_base();
  const AssignResult clean = run(stream, 4, 0, 1, nullptr);
  PoisonStore store(payload);
  const AssignResult poisoned = run(stream, 4, 0, 1, &store);
  EXPECT_EQ(poisoned.placement, clean.placement);
  EXPECT_EQ(poisoned.removed, clean.removed);
  EXPECT_EQ(hash_result(poisoned), hash_result(clean));
  EXPECT_EQ(poisoned.stats.memo_decomp_hits, 0u);
  EXPECT_EQ(poisoned.stats.memo_decomp_misses, 1u);
  EXPECT_EQ(store.erased.size(), 1u);

  const AssignResult next = run(stream, 4, 0, 1, &store);
  EXPECT_EQ(hash_result(next), hash_result(clean));
  EXPECT_EQ(next.stats.memo_decomp_hits, 1u);
  EXPECT_EQ(next.stats.memo_decomp_misses, 0u);
}

// An atom count far beyond what the payload's bytes can hold must not
// reach an allocation.
TEST(IncrementalDifferential, HugeAtomCountInAJournaledDecompositionIsAMiss) {
  expect_poison_is_a_miss(words({std::uint64_t{1} << 62}));
}

// One atom whose only vertex id is out of range (2^32 would truncate to
// vertex 0): the colouring indexes per-vertex arrays by these ids and must
// see every vertex in some atom.
TEST(IncrementalDifferential,
     OutOfRangeVertexInAJournaledDecompositionIsAMiss) {
  expect_poison_is_a_miss(
      words({/*atoms=*/1, /*vertices=*/1, std::uint64_t{1} << 32,
             /*separator=*/0}));
}

}  // namespace
}  // namespace parmem::assign
