#include "inputs.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ir/stream_io.h"
#include "support/rng.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace perfbench {

using parmem::assign::Strategy;
using parmem::support::SplitMix64;

namespace {

// Per-input seed streams, so adding an input never shifts another's bytes.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.next();
}

constexpr std::uint64_t kSaltOrder = 1;
constexpr std::uint64_t kSaltMonolithic = 2;
constexpr std::uint64_t kSaltModular = 3;
constexpr std::uint64_t kSaltMix = 4;

// The edited program is fixed, like the paper programs (the seed picks the
// edits): seed-to-seed differences in its atom structure would otherwise
// move every edit's cost together. 0xabc3 is incremental_recompile's seed.
constexpr std::uint64_t kEditBaseSeed = 0xabc3;
// stream_large's streams are fixed for the same reason; the seed renames
// their values (relabeled below).
constexpr std::uint64_t kMonolithicBaseSeed = 0x5eed1;
constexpr std::uint64_t kModularBaseSeed = 0x5eed2;
constexpr std::size_t kEditBlocks = 8;
constexpr std::size_t kEditValuesPerBlock = 96;
// Load edits append 1..3 copies; warm-up edits append 4, so they never
// share a key with a load request.
constexpr std::size_t kWarmEditCopies = 4;

parmem::service::CompileRequest stream_request(std::string text) {
  parmem::service::CompileRequest r;
  r.kind = parmem::service::RequestKind::kStream;
  r.module_count = 8;
  r.body = std::move(text);
  return r;
}

parmem::ir::AccessStream modular_edit_base() {
  parmem::workloads::ModularStreamOptions mg;
  mg.block_count = kEditBlocks;
  mg.values_per_block = kEditValuesPerBlock;
  mg.tuples_per_block = 300;
  SplitMix64 rng(kEditBaseSeed);
  return parmem::workloads::modular_stream(mg, rng);
}

/// One-block edits of the fixed modular stream: `copies` duplicates of a
/// tuple confined to one block's interior (away from the bridge cliques),
/// so an edit dirties only that block's atoms and has a fresh cache key.
struct EditSource {
  parmem::ir::AccessStream base;
  std::vector<std::size_t> interior;  // tuple indices inside one block

  explicit EditSource(parmem::ir::AccessStream b) : base(std::move(b)) {
    for (std::size_t t = 0; t < base.tuples.size(); ++t) {
      const auto& ops = base.tuples[t].operands;
      const std::size_t block = ops.front() / kEditValuesPerBlock;
      const std::size_t lo = block * kEditValuesPerBlock + 8;
      const std::size_t hi = (block + 1) * kEditValuesPerBlock - 8;
      if (ops.front() >= lo && ops.back() < hi) interior.push_back(t);
    }
  }

  parmem::service::CompileRequest request(std::size_t tuple,
                                          std::size_t copies) const {
    parmem::ir::AccessStream e = base;
    for (std::size_t c = 0; c < copies; ++c) e.tuples.push_back(base.tuples[tuple]);
    return stream_request(parmem::ir::format_stream(e));
  }
};

/// The options `mcc --workload NAME --strategy STORn` compiles with: k = 8
/// modules, 8 functional units, hitting-set duplication, the legacy
/// sequential assignment path (threads = 0), no renaming.
parmem::analysis::PipelineOptions mcc_options(const std::string& program,
                                              Strategy s) {
  parmem::analysis::PipelineOptions o;
  o.sched.fu_count = 8;
  o.sched.module_count = 8;
  o.assign.module_count = 8;
  o.assign.strategy = s;
  o.assign.method = parmem::assign::DupMethod::kHittingSet;
  o.source_name = program;
  return o;
}

}  // namespace

std::vector<PaperCell> paper_cells() {
  std::vector<PaperCell> cells;
  for (const auto& w : parmem::workloads::all_workloads()) {
    for (const Strategy s : {Strategy::kStor1, Strategy::kStor2,
                             Strategy::kStor3}) {
      cells.push_back({w.name + "/" + parmem::assign::strategy_name(s),
                       w.source, mcc_options(w.name, s)});
    }
  }
  return cells;
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed,
                                        std::uint64_t round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  SplitMix64 rng(derive(seed, kSaltOrder) + round);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

namespace {

/// `s` with its value ids renamed by a seeded permutation: the same conflict
/// graph, atoms and work, in different bytes.
parmem::ir::AccessStream relabeled(const parmem::ir::AccessStream& s,
                                   std::uint64_t seed) {
  std::vector<parmem::ir::ValueId> to(s.value_count);
  for (std::size_t v = 0; v < to.size(); ++v) {
    to[v] = static_cast<parmem::ir::ValueId>(v);
  }
  SplitMix64 rng(seed);
  for (std::size_t i = to.size(); i > 1; --i) {
    std::swap(to[i - 1], to[rng.below(i)]);
  }
  parmem::ir::AccessStream out = s;
  for (auto& t : out.tuples) {
    for (auto& v : t.operands) v = to[v];
    std::sort(t.operands.begin(), t.operands.end());
  }
  for (std::size_t v = 0; v < s.value_count; ++v) {
    out.duplicatable[to[v]] = s.duplicatable[v];
    out.global[to[v]] = s.global[v];
  }
  return out;
}

}  // namespace

std::vector<StreamInput> large_streams(std::uint64_t seed) {
  std::vector<StreamInput> out;
  {
    parmem::workloads::StreamGenOptions g;
    g.value_count = 4096;
    g.tuple_count = 20000;
    g.min_width = 2;
    g.max_width = 4;
    g.locality_window = 24;
    g.region_count = 8;
    SplitMix64 rng(kMonolithicBaseSeed);
    out.push_back({"syn_monolithic",
                   parmem::ir::format_stream(relabeled(
                       parmem::workloads::random_stream(g, rng),
                       derive(seed, kSaltMonolithic)))});
  }
  {
    parmem::workloads::ModularStreamOptions g;
    g.block_count = 16;
    g.values_per_block = 256;
    g.tuples_per_block = 1200;
    g.min_width = 2;
    g.max_width = 4;
    g.locality_window = 24;
    g.bridge_tuples = 6;
    SplitMix64 rng(kModularBaseSeed);
    out.push_back({"syn_modular",
                   parmem::ir::format_stream(relabeled(
                       parmem::workloads::modular_stream(g, rng),
                       derive(seed, kSaltModular)))});
  }
  return out;
}

const char* request_class_name(RequestClass c) {
  switch (c) {
    case RequestClass::kHot: return "hot";
    case RequestClass::kEdit: return "edit";
    case RequestClass::kFresh: return "fresh";
  }
  return "?";
}

std::vector<parmem::service::CompileRequest> hot_requests() {
  std::vector<parmem::service::CompileRequest> out;
  for (const auto& w : parmem::workloads::all_workloads()) {
    for (const std::size_t k : {4, 8}) {
      parmem::service::CompileRequest r;
      r.kind = parmem::service::RequestKind::kMc;
      r.module_count = k;
      r.body = w.source;
      out.push_back(std::move(r));
    }
  }
  return out;
}

std::vector<ServiceInput> service_requests(std::size_t count,
                                           std::uint64_t seed) {
  // Exact class counts, shuffled: the mix is the same share on every seed.
  // Edits outnumber fresh streams so the miss median sits inside the edit
  // mode rather than in the gap between the two (fresh streams are ~5x
  // cheaper).
  const std::size_t hot = count * 40 / 100;
  const std::size_t edits = count * 35 / 100;
  std::vector<RequestClass> classes(count, RequestClass::kFresh);
  std::fill(classes.begin(), classes.begin() + hot, RequestClass::kHot);
  std::fill(classes.begin() + hot, classes.begin() + hot + edits,
            RequestClass::kEdit);
  SplitMix64 rng(derive(seed, kSaltMix));
  for (std::size_t i = count; i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.below(i)]);
  }

  const auto hot_set = hot_requests();

  const EditSource edits_of(modular_edit_base());
  std::set<std::pair<std::size_t, std::size_t>> used_edits;

  parmem::workloads::StreamGenOptions fg;
  fg.value_count = 128;
  fg.tuple_count = 400;
  fg.min_width = 2;
  fg.max_width = 4;
  fg.locality_window = 16;
  fg.region_count = 2;

  std::vector<ServiceInput> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServiceInput in;
    in.cls = classes[i];
    switch (in.cls) {
      case RequestClass::kHot:
        in.req = hot_set[rng.below(hot_set.size())];
        break;
      case RequestClass::kEdit: {
        std::pair<std::size_t, std::size_t> edit;
        do {
          edit = {edits_of.interior[rng.below(edits_of.interior.size())],
                  1 + rng.below(3)};
        } while (!used_edits.insert(edit).second);
        in.req = edits_of.request(edit.first, edit.second);
        break;
      }
      case RequestClass::kFresh: {
        SplitMix64 fresh_rng(rng.next());
        in.req = stream_request(parmem::ir::format_stream(
            parmem::workloads::random_stream(fg, fresh_rng)));
        break;
      }
    }
    in.req.id = i + 1;
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<parmem::service::CompileRequest> warm_edit_requests(std::size_t n) {
  const EditSource edits(modular_edit_base());
  std::vector<parmem::service::CompileRequest> out;
  for (std::size_t i = 0; i < n && i < edits.interior.size(); ++i) {
    out.push_back(edits.request(edits.interior[i], kWarmEditCopies));
  }
  return out;
}

std::uint64_t inputs_fingerprint(std::uint64_t seed,
                                 std::size_t service_count) {
  std::string bytes;
  for (const PaperCell& c : paper_cells()) bytes += c.name + '\n' + c.source;
  for (const std::size_t i : shuffled_order(18, seed, 0)) {
    bytes += std::to_string(i) + ' ';
  }
  for (const StreamInput& s : large_streams(seed)) bytes += s.name + '\n' + s.text;
  for (const ServiceInput& in : service_requests(service_count, seed)) {
    bytes += std::string(request_class_name(in.cls)) + '\n' +
             parmem::service::format_request(in.req);
  }
  return parmem::service::fnv1a64(bytes);
}

}  // namespace perfbench
