// Incremental recompilation bench: full compile vs a compile that reuses
// the journaled clique-separator decomposition, edit class by edit class
// (DESIGN.md §13).
//
// For every stream the harness compiles a base version once to prime an
// in-memory memo store, then times two compiles of each *edited* stream:
// a from-scratch run (no store) and an incremental run against a copy of
// the primed store. The incremental result must be byte-identical to the
// from-scratch result — any divergence aborts the bench — and the report
// records the latency ratio plus the decomposition-memo counters (reused /
// computed) for each cell.
//
// Edit classes (all weight-only: duplicated tuples change conflict weights
// without adding values or edges, the shape of a re-run after a small
// source edit):
//   edit_one_line   duplicate a single mid-stream tuple
//   edit_one_atom   duplicate 8 tuples confined to one block's interior
//                   (mid-stream for streams without block structure)
//   edit_10pct      duplicate every 10th tuple, spread over the stream
//
// Every edit keeps the conflict graph's structure, so every incremental
// compile reuses the base compile's decomposition and skips MCS-M and the
// clique-separator split; colouring and duplication recompute.
//
// Streams: the six paper workloads, syn_large — the block-structured
// workloads::modular_stream at its syn_large-class defaults (16 blocks x
// 256 values x 1200 tuples, seed 0xabc3, ~80 clique-separator atoms) —
// and, in full mode, syn_large_monolithic (the sliding-window random
// stream FrontHalfGolden.LargeStreamAssign pins as syn_large, same
// value/tuple budget): its conflict graph has no clique separators, so it
// decomposes into one giant atom. --quick
// swaps syn_large for a smaller modular stream and drops the monolith (CI
// smoke).
//
// Gates (exit 1): every cell's incremental result is byte-identical to the
// from-scratch one and reused the base compile's decomposition; in full
// mode, syn_large edit_one_atom must also run at least kMinOneAtomSpeedup
// times faster incrementally than from scratch.
//
// Usage: incremental_recompile [--quick] [--out PATH]
//   --quick  paper workloads + a mid-size modular stream, one rep
//   --out    JSON report path (default BENCH_incremental.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "assign/conflict_graph.h"
#include "assign/incremental.h"
#include "bench_json.h"
#include "graph/atoms.h"
#include "support/json.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::assign {
namespace {

using Clock = std::chrono::steady_clock;

// What skipping MCS-M and the split saves on syn_large edit_one_atom, with
// colouring and duplication recomputed: 1.89-2.01x over six full-mode runs
// (Release, shared 4-vCPU box), so 1.4x leaves room for the host's drift.
constexpr double kMinOneAtomSpeedup = 1.4;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// Copyable in-memory AtomMemoStore: each timed incremental run gets a
// fresh copy of the primed store, so later reps never benefit from entries
// journaled by earlier ones.
struct MapStore final : AtomMemoStore {
  MapStore() = default;
  MapStore(const MapStore& o) : map(o.map) {}

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

struct BenchStream {
  std::string name;
  ir::AccessStream stream;
  // Block geometry for the edit_one_atom class; 0 = no block structure
  // (fall back to a mid-stream tuple run).
  std::size_t block_count = 0;
  std::size_t values_per_block = 0;
};

ir::AccessStream edit_one_line(const ir::AccessStream& base) {
  ir::AccessStream e = base;
  e.tuples.push_back(base.tuples[base.tuples.size() / 2]);
  return e;
}

ir::AccessStream edit_one_atom(const BenchStream& b) {
  ir::AccessStream e = b.stream;
  int added = 0;
  if (b.block_count > 0) {
    // Interior of the middle block: away from the bridge cliques, so only
    // that block's atoms change content.
    const std::size_t block = b.block_count / 2;
    const auto lo =
        static_cast<ir::ValueId>(block * b.values_per_block + 16);
    const auto hi =
        static_cast<ir::ValueId>((block + 1) * b.values_per_block - 16);
    for (std::size_t t = 0; t < b.stream.tuples.size() && added < 8; ++t) {
      bool inside = true;
      for (const ir::ValueId op : b.stream.tuples[t].operands) {
        inside = inside && op >= lo && op < hi;
      }
      if (inside) {
        e.tuples.push_back(b.stream.tuples[t]);
        ++added;
      }
    }
  }
  // No block structure (or the interior window was too tight): a run of 8
  // consecutive mid-stream tuples.
  for (std::size_t t = b.stream.tuples.size() / 2;
       t < b.stream.tuples.size() && added < 8; ++t) {
    e.tuples.push_back(b.stream.tuples[t]);
    ++added;
  }
  return e;
}

ir::AccessStream edit_10pct(const ir::AccessStream& base) {
  ir::AccessStream e = base;
  for (std::size_t t = 0; t < base.tuples.size(); t += 10) {
    e.tuples.push_back(base.tuples[t]);
  }
  return e;
}

struct Cell {
  std::string edit;
  std::size_t added_tuples = 0;
  double full_ms = 0;
  double incremental_ms = 0;
  std::uint64_t decomp_reused = 0;
  std::uint64_t decomp_computed = 0;
  bool identical = false;

  double speedup() const {
    return incremental_ms > 0 ? full_ms / incremental_ms : 0.0;
  }
  double reuse_ratio() const {
    const auto total = decomp_reused + decomp_computed;
    return total > 0 ? static_cast<double>(decomp_reused) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

struct Entry {
  std::string name;
  std::size_t values = 0;
  std::size_t tuples = 0;
  std::size_t atoms = 0;
  std::vector<Cell> cells;
};

bool same_result(const AssignResult& a, const AssignResult& b) {
  return a.placement == b.placement && a.removed == b.removed &&
         a.stats.total_copies == b.stats.total_copies;
}

Cell bench_cell(const char* edit_name, const ir::AccessStream& edited,
                const AssignOptions& opts, const MapStore& primed,
                std::size_t base_tuples, int reps) {
  Cell c;
  c.edit = edit_name;
  c.added_tuples = edited.tuples.size() - base_tuples;

  const AssignResult scratch = assign_modules(edited, opts);
  // Each rep times both sides back to back, so a drift in the host's speed
  // reaches both minima alike instead of skewing the ratio.
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    assign_modules(edited, opts);
    const double full_ms = ms_since(t0);
    c.full_ms = r == 0 ? full_ms : std::min(c.full_ms, full_ms);

    MapStore store(primed);
    AssignOptions mo = opts;
    mo.memo_store = &store;
    t0 = Clock::now();
    const AssignResult inc = assign_modules(edited, mo);
    const double ms = ms_since(t0);
    c.incremental_ms = r == 0 ? ms : std::min(c.incremental_ms, ms);
    if (r == 0) {
      c.decomp_reused = inc.stats.memo_decomp_hits;
      c.decomp_computed = inc.stats.memo_decomp_misses;
      c.identical = same_result(inc, scratch);
    }
  }
  return c;
}

Entry bench_stream(const BenchStream& b, const AssignOptions& opts,
                   int reps) {
  Entry e;
  e.name = b.name;
  e.values = b.stream.value_count;
  e.tuples = b.stream.tuples.size();
  e.atoms = graph::decompose_by_clique_separators(
                ConflictGraph::build(b.stream).graph())
                .size();

  // Prime the store with the base compile (untimed) — this is the
  // "previous build" whose journal the edited compiles replay from.
  MapStore primed;
  {
    AssignOptions mo = opts;
    mo.memo_store = &primed;
    assign_modules(b.stream, mo);
  }

  e.cells.push_back(bench_cell("edit_one_line", edit_one_line(b.stream),
                               opts, primed, e.tuples, reps));
  e.cells.push_back(bench_cell("edit_one_atom", edit_one_atom(b), opts,
                               primed, e.tuples, reps));
  e.cells.push_back(bench_cell("edit_10pct", edit_10pct(b.stream), opts,
                               primed, e.tuples, reps));
  return e;
}

void write_json(const std::string& path, const std::vector<Entry>& entries,
                bool quick) {
  support::JsonWriter w;
  w.begin_object();
  w.member("bench", "incremental_recompile");
  w.member("quick", quick);
  w.member("nproc", std::thread::hardware_concurrency());
  w.member("module_count", 8);
  w.member("pool_width", 1);
  // The syn_large generator, pinned so the report is reproducible: the
  // block-structured modular stream (workloads::modular_stream defaults).
  w.key("syn_large_generator");
  w.begin_object();
  w.member("generator", "modular_stream");
  w.member("block_count", 16);
  w.member("values_per_block", 256);
  w.member("tuples_per_block", 1200);
  w.member("locality_window", 24);
  w.member("bridge_tuples", 6);
  w.member("seed", std::uint64_t{0xabc3});
  w.end_object();
  w.key("entries");
  w.begin_array();
  for (const Entry& e : entries) {
    w.begin_object();
    w.member("stream", e.name);
    w.member("values", e.values);
    w.member("tuples", e.tuples);
    w.member("atoms", e.atoms);
    w.key("edits");
    w.begin_array();
    for (const Cell& c : e.cells) {
      w.begin_object();
      w.member("edit", c.edit);
      w.member("added_tuples", c.added_tuples);
      w.member_fixed("full_ms", c.full_ms, 3);
      w.member_fixed("incremental_ms", c.incremental_ms, 3);
      w.member_fixed("speedup", c.speedup(), 2);
      w.member("decomp_reused", c.decomp_reused);
      w.member("decomp_computed", c.decomp_computed);
      w.member_fixed("reuse_ratio", c.reuse_ratio(), 3);
      w.member("identical", c.identical);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  bench::write_report(path, w);
}

}  // namespace
}  // namespace parmem::assign

int main(int argc, char** argv) {
  using namespace parmem;

  bool quick = false;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: incremental_recompile [--quick] [--out PATH]\n");
      return 1;
    }
  }

  std::vector<assign::BenchStream> streams;
  for (const auto& wl : workloads::all_workloads()) {
    analysis::PipelineOptions o;
    o.sched.fu_count = 8;
    o.sched.module_count = 8;
    o.assign.module_count = 8;
    o.rename = true;
    streams.push_back({wl.name, analysis::compile_mc(wl.source, o).stream});
  }
  if (quick) {
    workloads::ModularStreamOptions g;
    g.block_count = 8;
    g.values_per_block = 96;
    g.tuples_per_block = 300;
    support::SplitMix64 rng(0xabc3);
    streams.push_back(
        {"syn_mid_modular", workloads::modular_stream(g, rng), 8, 96});
  } else {
    {
      workloads::ModularStreamOptions g;  // syn_large-class defaults
      support::SplitMix64 rng(0xabc3);
      streams.push_back(
          {"syn_large", workloads::modular_stream(g, rng), 16, 256});
    }
    {
      // The worst case: same budget, no block structure, one giant atom.
      support::SplitMix64 rng(0xabc3);
      workloads::StreamGenOptions g;
      g.value_count = 4096;
      g.tuple_count = 20000;
      g.min_width = 2;
      g.max_width = 4;
      g.locality_window = 24;
      g.region_count = 8;
      streams.push_back(
          {"syn_large_monolithic", workloads::random_stream(g, rng)});
    }
  }

  assign::AssignOptions opts;
  opts.module_count = 8;

  const int reps = quick ? 1 : 3;
  std::vector<assign::Entry> entries;
  bool all_identical = true;
  bool all_reused = true;
  double syn_large_one_atom_speedup = 0;
  for (const auto& b : streams) {
    assign::Entry e = assign::bench_stream(b, opts, reps);
    for (const assign::Cell& c : e.cells) {
      std::printf(
          "%-20s %-13s full %9.3f ms  inc %9.3f ms  speedup %6.2fx  "
          "reuse %3.0f%%  %s\n",
          e.name.c_str(), c.edit.c_str(), c.full_ms, c.incremental_ms,
          c.speedup(), 100.0 * c.reuse_ratio(),
          c.identical ? "identical" : "MISMATCH");
      all_identical = all_identical && c.identical;
      all_reused = all_reused && c.decomp_reused == 1 && c.decomp_computed == 0;
      if (e.name == "syn_large" && c.edit == "edit_one_atom") {
        syn_large_one_atom_speedup = c.speedup();
      }
    }
    entries.push_back(std::move(e));
  }

  assign::write_json(out_path, entries, quick);
  std::printf("report written to %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: incremental output diverged from from-scratch\n");
    return 1;
  }
  if (!all_reused) {
    std::fprintf(stderr,
                 "FAIL: an incremental compile recomputed the decomposition\n");
    return 1;
  }
  if (!quick && syn_large_one_atom_speedup < assign::kMinOneAtomSpeedup) {
    std::fprintf(stderr,
                 "FAIL: syn_large edit_one_atom speedup %.2fx < %.1fx\n",
                 syn_large_one_atom_speedup, assign::kMinOneAtomSpeedup);
    return 1;
  }
  return 0;
}
