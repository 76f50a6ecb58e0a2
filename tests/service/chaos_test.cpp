// Chaos soak (ISSUE: service robustness): 200 seeded requests mixing valid
// MC sources, synthetic streams, malformed payloads, random deadlines and
// step budgets — with faults injected at service and pipeline sites in
// fault-injection builds — asserting that not one request is lost (exactly
// one terminal response each), and that a kill + warm restart over the same
// journal directory replays deterministic results byte-identically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "service/request.h"
#include "service/server.h"
#include "support/fault_injection.h"
#include "support/rng.h"

namespace parmem::service {
namespace {

namespace fs = std::filesystem;

std::string mc_source(std::uint64_t variant) {
  return "func main() {\n"
         "  var a: int = " + std::to_string(variant % 23) + ";\n"
         "  var b: int = a * " + std::to_string(2 + variant % 5) + " + 1;\n"
         "  var c: int = b - a;\n"
         "  var d: int = c * c + b;\n"
         "  print(a + b * c - d);\n"
         "}\n";
}

std::string stream_body(support::SplitMix64& rng) {
  const std::uint64_t tuples = 2 + rng.below(6);
  const std::uint64_t width = 2 + rng.below(3);
  std::string body = "stream " + std::to_string(tuples * width) + "\n";
  std::uint64_t v = 0;
  for (std::uint64_t t = 0; t < tuples; ++t) {
    body += "tuple";
    for (std::uint64_t w = 0; w < width; ++w) {
      body += ' ';
      body += std::to_string(v++);
    }
    body += "\n";
  }
  return body;
}

std::string malformed_body(std::uint64_t pick) {
  switch (pick % 5) {
    case 0: return "func main( {";
    case 1: return "";
    case 2: return "func main() { print(no_such_name); }";
    case 3: return "stream notanumber\n";
    default: return "tuple 0 1\n";  // stream body without a header
  }
}

/// The seeded 200-request mix: ~55% valid MC, ~25% synthetic streams, ~20%
/// malformed; 30% carry a 1–30 ms deadline, 10% a small step budget.
std::vector<CompileRequest> make_requests(std::uint64_t total,
                                          std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  std::vector<CompileRequest> reqs;
  for (std::uint64_t id = 1; id <= total; ++id) {
    CompileRequest req;
    req.id = id;
    const std::uint64_t mix = rng.below(100);
    if (mix < 55) {
      req.kind = RequestKind::kMc;
      req.body = mc_source(rng.next());
    } else if (mix < 80) {
      req.kind = RequestKind::kStream;
      req.body = stream_body(rng);
    } else {
      req.kind = rng.below(2) ? RequestKind::kStream : RequestKind::kMc;
      req.body = malformed_body(rng.next());
    }
    req.module_count = 4 + 4 * rng.below(3);  // 4 / 8 / 12
    if (rng.below(100) < 30) req.deadline_ms = 1 + rng.below(30);
    if (rng.below(100) < 10) req.max_steps = 500 + rng.below(5000);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

#if PARMEM_FAULT_INJECTION_ENABLED
void arm_some_fault(std::uint64_t pick) {
  static const char* kSites[] = {"service.worker", "service.admit",
                                 "service.cache_store", "pipeline.assign"};
  static const support::FaultKind kKinds[] = {
      support::FaultKind::kTimeout, support::FaultKind::kBadAlloc,
      support::FaultKind::kInternalError};
  support::FaultInjector::instance().arm(kSites[pick % 4],
                                         kKinds[(pick / 4) % 3]);
}
#endif

TEST(ChaosSoak, TwoHundredSeededRequestsZeroLostAndWarmRestartIsByteIdentical) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "parmem_chaos_soak_cache";
  fs::remove_all(dir);

  constexpr std::uint64_t kTotal = 200;
  const std::vector<CompileRequest> reqs = make_requests(kTotal, 0xC0FFEE);
  support::SplitMix64 fault_rng(0xFA17);

  std::mutex mu;
  std::map<std::uint64_t, std::uint64_t> responses_per_id;
  std::map<std::uint64_t, CompileResponse> by_id;
  std::atomic<std::uint64_t> responded{0};

  struct Sample {  // deterministic requests re-checked after the restart
    CompileRequest req;
    std::string cacheable;
  };
  std::vector<Sample> samples;

  {
    ServiceOptions opts;
    opts.workers = 3;
    opts.queue_capacity = 256;  // soak throughput, not shedding, is on trial
    opts.cache_dir = dir.string();
    CompileService service(opts);

    for (const CompileRequest& req : reqs) {
#if PARMEM_FAULT_INJECTION_ENABLED
      if (req.id % 16 == 0) arm_some_fault(fault_rng.next());
#else
      (void)fault_rng;
#endif
      const std::uint64_t id = req.id;
      service.submit(req, [&, id](const CompileResponse& resp) {
        std::lock_guard<std::mutex> lk(mu);
        ++responses_per_id[id];
        by_id[id] = resp;
        responded.fetch_add(1);
      });
    }
    service.drain();

    // Zero lost: every request reached exactly one terminal response.
    ASSERT_EQ(responded.load(), kTotal);
    ASSERT_EQ(responses_per_id.size(), kTotal);
    for (const auto& [id, n] : responses_per_id) {
      EXPECT_EQ(n, 1u) << "request " << id << " answered " << n << " times";
    }
    const auto c = service.counters();
    EXPECT_EQ(c.completed, kTotal);
#if PARMEM_FAULT_INJECTION_ENABLED
    // Injected service.admit faults complete a request without counting it
    // as accepted or shed.
    EXPECT_LE(c.accepted + c.shed + c.cache_hits, kTotal);
#else
    EXPECT_EQ(c.accepted + c.shed + c.cache_hits, kTotal);
#endif

    // Collect deterministic full-effort results for the restart check:
    // kOk with no deadline recompiles identically even on a cache miss.
    for (const CompileRequest& req : reqs) {
      if (samples.size() >= 32) break;
      const CompileResponse& resp = by_id.at(req.id);
      if (resp.status == ResponseStatus::kOk && req.deadline_ms == 0) {
        samples.push_back({req, cacheable_part(resp)});
      }
    }
    ASSERT_GT(samples.size(), 0u) << "seed produced no deterministic results";
  }  // service destroyed — the "kill": only the journal survives

#if PARMEM_FAULT_INJECTION_ENABLED
  support::FaultInjector::instance().reset();
#endif

  // Warm restart: a fresh service over the same journal directory must
  // serve every sampled result byte-identically, under fresh request ids.
  {
    ServiceOptions opts;
    opts.cache_dir = dir.string();
    CompileService warm(opts);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      CompileRequest req = samples[i].req;
      req.id += 100000;  // a different id must not change the cached bytes
      const CompileResponse resp = warm.handle(std::move(req));
      EXPECT_TRUE(resp.ok()) << "sample " << i;
      EXPECT_EQ(cacheable_part(resp), samples[i].cacheable) << "sample " << i;
    }
#if !PARMEM_FAULT_INJECTION_ENABLED
    // Without injected cache-store faults every sampled result was
    // journaled, so the warm service answers all of them from the cache.
    EXPECT_EQ(warm.counters().cache_hits, samples.size());
    EXPECT_GT(warm.cache().stats().loaded, 0u);
#endif
  }

  fs::remove_all(dir);
}

}  // namespace
}  // namespace parmem::service
