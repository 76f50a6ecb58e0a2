// Differential suite for the CSR conflict-graph refactor.
//
// The golden hashes below were produced by the pre-CSR (hash-map based)
// implementation's atom-task mode: for every (stream, k, strategy, method)
// cell the full AssignResult — placement, removals, and stats — was hashed
// with FNV-1a. The current implementation must reproduce every hash
// bit-for-bit. A separate
// test rebuilds conf() with a naive map and checks it against the packed
// conf_weights()/conf_sum() arrays edge by edge.
//
// syn_large (V=4096, 20k tuples) was part of the golden matrix when it was
// captured but is omitted here to keep the suite fast; its STOR1 / hs / k=8
// cell is pinned by FrontHalfGolden.LargeStreamAssign instead.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "assign/conflict_graph.h"
#include "result_hash.h"
#include "workloads/stream_gen.h"
#include "workloads/workloads.h"

namespace parmem::assign {
namespace {

struct GoldenRow {
  const char* stream;
  std::size_t k;
  int strategy;  // static_cast<int>(Strategy)
  int method;    // static_cast<int>(DupMethod)
  std::uint64_t golden_hash;
};

// Captured from the seed implementation (see file comment).
const GoldenRow kGoldens[] = {
    {"TAYLOR1", 2, 0, 1, 0x68b83e21936da7e8ULL},
    {"TAYLOR1", 2, 0, 0, 0x1850a21a9002f96bULL},
    {"TAYLOR1", 2, 1, 1, 0x68b83e21936da7e8ULL},
    {"TAYLOR1", 2, 1, 0, 0x1850a21a9002f96bULL},
    {"TAYLOR1", 2, 2, 1, 0x68b83e21936da7e8ULL},
    {"TAYLOR1", 2, 2, 0, 0x4f0a943bddc8e88bULL},
    {"TAYLOR1", 4, 0, 1, 0x6b753649a8e08847ULL},
    {"TAYLOR1", 4, 0, 0, 0x1b22015a0b2d0fc9ULL},
    {"TAYLOR1", 4, 1, 1, 0x6b753649a8e08847ULL},
    {"TAYLOR1", 4, 1, 0, 0x1b22015a0b2d0fc9ULL},
    {"TAYLOR1", 4, 2, 1, 0x5c79dae6650e2167ULL},
    {"TAYLOR1", 4, 2, 0, 0x958a2f39ae4bb09cULL},
    {"TAYLOR1", 8, 0, 1, 0x7736b1d4a95f9790ULL},
    {"TAYLOR1", 8, 0, 0, 0x7736b1d4a95f9790ULL},
    {"TAYLOR1", 8, 1, 1, 0x7736b1d4a95f9790ULL},
    {"TAYLOR1", 8, 1, 0, 0x7736b1d4a95f9790ULL},
    {"TAYLOR1", 8, 2, 1, 0x3ba8895ebf977defULL},
    {"TAYLOR1", 8, 2, 0, 0x3ba8895ebf977defULL},
    {"TAYLOR2", 2, 0, 1, 0xa8695f113f90ed4eULL},
    {"TAYLOR2", 2, 0, 0, 0xa8695f113f90ed4eULL},
    {"TAYLOR2", 2, 1, 1, 0x1d37f7307a3bcd57ULL},
    {"TAYLOR2", 2, 1, 0, 0x1d37f7307a3bcd57ULL},
    {"TAYLOR2", 2, 2, 1, 0xa58340472dc8766eULL},
    {"TAYLOR2", 2, 2, 0, 0xa58340472dc8766eULL},
    {"TAYLOR2", 4, 0, 1, 0x53097f4bc9631e30ULL},
    {"TAYLOR2", 4, 0, 0, 0x53097f4bc9631e30ULL},
    {"TAYLOR2", 4, 1, 1, 0x8b49c3eae3acc3b7ULL},
    {"TAYLOR2", 4, 1, 0, 0x8b49c3eae3acc3b7ULL},
    {"TAYLOR2", 4, 2, 1, 0xf1b67b913463f1edULL},
    {"TAYLOR2", 4, 2, 0, 0xf1b67b913463f1edULL},
    {"TAYLOR2", 8, 0, 1, 0xdc787118ba1a6d70ULL},
    {"TAYLOR2", 8, 0, 0, 0xdc787118ba1a6d70ULL},
    {"TAYLOR2", 8, 1, 1, 0xdc4c5610afcc763fULL},
    {"TAYLOR2", 8, 1, 0, 0xdc4c5610afcc763fULL},
    {"TAYLOR2", 8, 2, 1, 0x386b2f8e1addc961ULL},
    {"TAYLOR2", 8, 2, 0, 0x386b2f8e1addc961ULL},
    {"EXACT", 2, 0, 1, 0xe3e2244297064ab1ULL},
    {"EXACT", 2, 0, 0, 0xeeb01bd2c59a8f72ULL},
    {"EXACT", 2, 1, 1, 0x70cbf78990b6a953ULL},
    {"EXACT", 2, 1, 0, 0x3434f9501f7d34f2ULL},
    {"EXACT", 2, 2, 1, 0x18c803875776689cULL},
    {"EXACT", 2, 2, 0, 0xa51a4b174b781889ULL},
    {"EXACT", 4, 0, 1, 0xe8140b347548d05aULL},
    {"EXACT", 4, 0, 0, 0x09552c7788da0a13ULL},
    {"EXACT", 4, 1, 1, 0x0058313d343d5b6eULL},
    {"EXACT", 4, 1, 0, 0x6c94cab51bd5b370ULL},
    {"EXACT", 4, 2, 1, 0xeac5868fe4bdab50ULL},
    {"EXACT", 4, 2, 0, 0x83eaef0110c7efaaULL},
    {"EXACT", 8, 0, 1, 0x344c674efdf38d93ULL},
    {"EXACT", 8, 0, 0, 0x344c674efdf38d93ULL},
    {"EXACT", 8, 1, 1, 0x98290da23b947561ULL},
    {"EXACT", 8, 1, 0, 0x98290da23b947561ULL},
    {"EXACT", 8, 2, 1, 0xba905430e5af43b9ULL},
    {"EXACT", 8, 2, 0, 0xba905430e5af43b9ULL},
    {"FFT", 2, 0, 1, 0xb5482db48c9e0290ULL},
    {"FFT", 2, 0, 0, 0x0b3679beff07d7e0ULL},
    {"FFT", 2, 1, 1, 0xac95583b8e4da0ddULL},
    {"FFT", 2, 1, 0, 0x49d34aa7583f48abULL},
    {"FFT", 2, 2, 1, 0x5053d3b00e17f810ULL},
    {"FFT", 2, 2, 0, 0x4856bc55b2d48f97ULL},
    {"FFT", 4, 0, 1, 0xb75f842d25097e9aULL},
    {"FFT", 4, 0, 0, 0xc6025a8ce71dd83eULL},
    {"FFT", 4, 1, 1, 0x12f3859e0619de11ULL},
    {"FFT", 4, 1, 0, 0x53d44066d44b870eULL},
    {"FFT", 4, 2, 1, 0xf325cc4b20b523c6ULL},
    {"FFT", 4, 2, 0, 0x3775875711525c6fULL},
    {"FFT", 8, 0, 1, 0x98a8d2a96c616c86ULL},
    {"FFT", 8, 0, 0, 0x98a8d2a96c616c86ULL},
    {"FFT", 8, 1, 1, 0x955840a339925721ULL},
    {"FFT", 8, 1, 0, 0x955840a339925721ULL},
    {"FFT", 8, 2, 1, 0x3b46b728198a8402ULL},
    {"FFT", 8, 2, 0, 0x3b46b728198a8402ULL},
    {"SORT", 2, 0, 1, 0x5b27c86c5454006fULL},
    {"SORT", 2, 0, 0, 0x14aa1a0994ac9b37ULL},
    {"SORT", 2, 1, 1, 0xb080e7986f47992bULL},
    {"SORT", 2, 1, 0, 0x7ad1af506a4d01d9ULL},
    {"SORT", 2, 2, 1, 0x02975a5983f854afULL},
    {"SORT", 2, 2, 0, 0xd3e08fc949e91bd7ULL},
    {"SORT", 4, 0, 1, 0xb5f575231e38594eULL},
    {"SORT", 4, 0, 0, 0xce33570c97ddf4b8ULL},
    {"SORT", 4, 1, 1, 0x821600ba241c1fe5ULL},
    {"SORT", 4, 1, 0, 0x6be116052546cd97ULL},
    {"SORT", 4, 2, 1, 0x9f1eb08bfd4aa182ULL},
    {"SORT", 4, 2, 0, 0xd8ce9a75c50c84b8ULL},
    {"SORT", 8, 0, 1, 0x32498404a9acc9cfULL},
    {"SORT", 8, 0, 0, 0x32498404a9acc9cfULL},
    {"SORT", 8, 1, 1, 0xca546cdcaad38cfdULL},
    {"SORT", 8, 1, 0, 0xca546cdcaad38cfdULL},
    {"SORT", 8, 2, 1, 0xf4c898de7cabfac6ULL},
    {"SORT", 8, 2, 0, 0xf4c898de7cabfac6ULL},
    {"COLOR", 2, 0, 1, 0x42a975617c6fa18fULL},
    {"COLOR", 2, 0, 0, 0x45f9e2071c662345ULL},
    {"COLOR", 2, 1, 1, 0xf08d9c7c25b74f08ULL},
    {"COLOR", 2, 1, 0, 0x7e106e98aa8868eeULL},
    {"COLOR", 2, 2, 1, 0x42a975617c6fa18fULL},
    {"COLOR", 2, 2, 0, 0x7a76ae0aac507b46ULL},
    {"COLOR", 4, 0, 1, 0xc9270ad05a31126bULL},
    {"COLOR", 4, 0, 0, 0xde771f6884943c77ULL},
    {"COLOR", 4, 1, 1, 0xf1f7d8555be3425cULL},
    {"COLOR", 4, 1, 0, 0x76481426c78dd02cULL},
    {"COLOR", 4, 2, 1, 0x643303f7c51b0e6aULL},
    {"COLOR", 4, 2, 0, 0x7218974270411697ULL},
    {"COLOR", 8, 0, 1, 0xf8870cc0249d0c07ULL},
    {"COLOR", 8, 0, 0, 0xf8870cc0249d0c07ULL},
    {"COLOR", 8, 1, 1, 0xbae875755a2e36ebULL},
    {"COLOR", 8, 1, 0, 0xbae875755a2e36ebULL},
    {"COLOR", 8, 2, 1, 0x71f393045b59f948ULL},
    {"COLOR", 8, 2, 0, 0x71f393045b59f948ULL},
    {"syn_small", 2, 0, 1, 0xfcd96a5535955d73ULL},
    {"syn_small", 2, 0, 0, 0xa8a7f67b08e976adULL},
    {"syn_small", 2, 1, 1, 0x4e8278feb1a389bcULL},
    {"syn_small", 2, 1, 0, 0xf8a03dcaaa93f1abULL},
    {"syn_small", 2, 2, 1, 0xd6a440e3cac6adf6ULL},
    {"syn_small", 2, 2, 0, 0x06bce56019279500ULL},
    {"syn_small", 4, 0, 1, 0xee0023c0e9b4ccbeULL},
    {"syn_small", 4, 0, 0, 0x6a2e42bc03fbf2f0ULL},
    {"syn_small", 4, 1, 1, 0x0be2e2653727a8d8ULL},
    {"syn_small", 4, 1, 0, 0xe1236b2357a03d2fULL},
    {"syn_small", 4, 2, 1, 0x4aa073f80777c424ULL},
    {"syn_small", 4, 2, 0, 0x2e2d4b6a9aab078eULL},
    {"syn_small", 8, 0, 1, 0xf2e365840778a7fdULL},
    {"syn_small", 8, 0, 0, 0x52f9d411ed5432e3ULL},
    {"syn_small", 8, 1, 1, 0x7e368182b03c9e26ULL},
    {"syn_small", 8, 1, 0, 0xc925d9eca05dd9c4ULL},
    {"syn_small", 8, 2, 1, 0xada0a4531e75b578ULL},
    {"syn_small", 8, 2, 0, 0x68ad41fb75e342f7ULL},
    {"syn_mid", 2, 0, 1, 0xa644e30d33161890ULL},
    {"syn_mid", 2, 0, 0, 0xad8d9bc215cd7cc0ULL},
    {"syn_mid", 2, 1, 1, 0x8b2fe2bbfe93253cULL},
    {"syn_mid", 2, 1, 0, 0xa4a5db0bc16e0b6aULL},
    {"syn_mid", 2, 2, 1, 0x29df5f4ec5d35a56ULL},
    {"syn_mid", 2, 2, 0, 0x0f93c904dc912a96ULL},
    {"syn_mid", 4, 0, 1, 0xd71f3bb1dfcdb7dfULL},
    {"syn_mid", 4, 0, 0, 0x1cc5646836c24ebbULL},
    {"syn_mid", 4, 1, 1, 0x7e382ca21c1700f3ULL},
    {"syn_mid", 4, 1, 0, 0x72dd1857d12d7407ULL},
    {"syn_mid", 4, 2, 1, 0xb1a489db28312ffdULL},
    {"syn_mid", 4, 2, 0, 0x67af8bd8713da95fULL},
    {"syn_mid", 8, 0, 1, 0x6cbb3f5a5412f8e4ULL},
    {"syn_mid", 8, 0, 0, 0x1202be8de3c366e8ULL},
    {"syn_mid", 8, 1, 1, 0xfb4442f7b7072f95ULL},
    {"syn_mid", 8, 1, 0, 0xd84bb2eb8a56caa4ULL},
    {"syn_mid", 8, 2, 1, 0xa613240c9649b43cULL},
    {"syn_mid", 8, 2, 0, 0x70353b8dee10ac26ULL},
};

ir::AccessStream make_stream(const std::string& name) {
  if (name == "syn_small" || name == "syn_mid") {
    workloads::StreamGenOptions g;
    g.min_width = 2;
    g.max_width = 4;
    if (name == "syn_small") {
      g.value_count = 256;
      g.tuple_count = 800;
      g.locality_window = 16;
      g.region_count = 4;
      support::SplitMix64 rng(0xabc1);
      return workloads::random_stream(g, rng);
    }
    g.value_count = 1024;
    g.tuple_count = 4000;
    g.locality_window = 24;
    g.region_count = 6;
    support::SplitMix64 rng(0xabc2);
    return workloads::random_stream(g, rng);
  }
  for (const auto& w : workloads::all_workloads()) {
    if (w.name == name) {
      analysis::PipelineOptions o;
      o.sched.fu_count = 8;
      o.sched.module_count = 8;
      o.assign.module_count = 8;
      o.rename = true;
      return analysis::compile_mc(w.source, o).stream;
    }
  }
  ADD_FAILURE() << "unknown stream " << name;
  return {};
}

void check_stream_against_goldens(const std::string& name) {
  const ir::AccessStream stream = make_stream(name);
  for (const GoldenRow& row : kGoldens) {
    if (name != row.stream) continue;
    AssignOptions o;
    o.module_count = row.k;
    o.strategy = static_cast<Strategy>(row.strategy);
    o.method = static_cast<DupMethod>(row.method);
    const std::string label = name + " k=" + std::to_string(row.k) +
                              " strat=" + std::to_string(row.strategy) +
                              " method=" + std::to_string(row.method);
    EXPECT_EQ(hash_result(assign_modules(stream, o)), row.golden_hash)
        << label;
  }
}

TEST(CsrDifferential, PaperWorkloadsMatchSeedGoldens) {
  for (const char* name :
       {"TAYLOR1", "TAYLOR2", "EXACT", "FFT", "SORT", "COLOR"}) {
    check_stream_against_goldens(name);
  }
}

TEST(CsrDifferential, SyntheticSmallMatchesSeedGoldens) {
  check_stream_against_goldens("syn_small");
}

TEST(CsrDifferential, SyntheticMidMatchesSeedGoldens) {
  check_stream_against_goldens("syn_mid");
}

// Rebuilds conf() the way the seed did — a map keyed on the vertex pair —
// and checks every packed edge weight, point query, and precomputed sum.
TEST(CsrDifferential, ConfWeightsMatchNaiveMap) {
  for (const char* name : {"FFT", "SORT", "syn_small", "syn_mid"}) {
    const ir::AccessStream stream = make_stream(name);
    const ConflictGraph cg = ConflictGraph::build(stream);

    std::unordered_map<std::uint64_t, std::uint32_t> naive;
    const auto key = [](graph::Vertex a, graph::Vertex b) {
      if (a > b) std::swap(a, b);
      return (static_cast<std::uint64_t>(a) << 32) | b;
    };
    std::vector<graph::Vertex> verts;
    for (const auto& t : stream.tuples) {
      verts.clear();
      for (const ir::ValueId v : t.operands) {
        const std::int64_t x = cg.vertex_of(v);
        ASSERT_GE(x, 0) << name << ": operand value missing from graph";
        verts.push_back(static_cast<graph::Vertex>(x));
      }
      std::sort(verts.begin(), verts.end());
      verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
      for (std::size_t i = 0; i < verts.size(); ++i) {
        for (std::size_t j = i + 1; j < verts.size(); ++j) {
          ++naive[key(verts[i], verts[j])];
        }
      }
    }

    std::size_t edges_seen = 0;
    for (graph::Vertex v = 0; v < cg.vertex_count(); ++v) {
      const auto nbrs = cg.neighbors(v);
      const auto wts = cg.conf_weights(v);
      ASSERT_EQ(nbrs.size(), wts.size());
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const auto it = naive.find(key(v, nbrs[i]));
        ASSERT_NE(it, naive.end())
            << name << ": edge (" << v << "," << nbrs[i] << ") not in map";
        EXPECT_EQ(wts[i], it->second);
        EXPECT_EQ(cg.conf(v, nbrs[i]), it->second);
        EXPECT_EQ(cg.conf(nbrs[i], v), it->second);
        sum += wts[i];
        ++edges_seen;
      }
      EXPECT_EQ(cg.conf_sum(v), sum) << name << " vertex " << v;
    }
    // Every map edge appears in the CSR form (each counted twice).
    EXPECT_EQ(edges_seen, 2 * naive.size()) << name;
  }
}

}  // namespace
}  // namespace parmem::assign
