// CompileService end-to-end (server.h): terminal statuses for every path,
// byte-identical cache hits across request ids, admission shedding with
// hysteresis, drain semantics, the framed serve() loop, and (in fault
// builds) retry and parked-escalation behaviour.
#include "service/server.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "../support/journal_cases.h"
#include "analysis/pipeline.h"
#include "assign/assigner.h"
#include "ir/stream_io.h"
#include "service/frame.h"
#include "service/request.h"
#include "support/fault_injection.h"
#include "support/file_io.h"
#include "support/journal.h"
#include "workloads/workloads.h"

namespace parmem::service {
namespace {

std::string mc_source(std::size_t i) {
  return "func main() {\n"
         "  var a: int = " + std::to_string(i % 17) + ";\n"
         "  var b: int = a * 3 + 1;\n"
         "  var c: int = b - a;\n"
         "  print(a + b * c);\n"
         "}\n";
}

CompileRequest mc_request(std::uint64_t id, std::size_t variant = 0) {
  CompileRequest req;
  req.id = id;
  req.kind = RequestKind::kMc;
  req.body = mc_source(variant);
  return req;
}

class ServerTest : public ::testing::Test {
 protected:
#if PARMEM_FAULT_INJECTION_ENABLED
  void TearDown() override { support::FaultInjector::instance().reset(); }
#endif
};

TEST_F(ServerTest, CompilesAValidMcSourceAtFullEffort) {
  CompileService service;
  const CompileResponse resp = service.handle(mc_request(1));
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_FALSE(resp.tier.empty());
  EXPECT_NE(resp.fingerprint, 0u);
  EXPECT_NE(resp.body.find("# placement"), std::string::npos);
  EXPECT_TRUE(resp.diagnostic.empty());
  const auto c = service.counters();
  EXPECT_EQ(c.accepted, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.retried, 0u);
}

TEST_F(ServerTest, CompilesAStreamRequest) {
  CompileService service;
  CompileRequest req;
  req.id = 2;
  req.kind = RequestKind::kStream;
  req.module_count = 4;
  req.body = "stream 6\ntuple 0 1\ntuple 2 3\ntuple 4 5\n";
  const CompileResponse resp = service.handle(std::move(req));
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_FALSE(resp.body.empty());
  EXPECT_NE(resp.fingerprint, 0u);
}

// Each response matches the in-process compile_mc / assign_modules of the
// same request, for both request kinds.
TEST_F(ServerTest, ArtifactMatchesTheInProcessCompile) {
  std::string fft;
  for (const auto& w : workloads::all_workloads()) {
    if (w.name == "FFT") fft = w.source;
  }
  analysis::PipelineOptions popts;
  popts.source_name = "<service>";
  const analysis::Compiled c = analysis::compile_mc(fft, popts);
  const std::string stream_text = ir::format_stream(c.stream);
  const ir::AccessStream stream = ir::parse_stream(stream_text, "<service>");
  const assign::AssignResult r = assign::assign_modules(stream, {});
  std::string placement = "# placement\n";
  for (ir::ValueId v = 0; v < stream.value_count; ++v) {
    if (r.placement[v] == 0) continue;
    placement += "value " + std::to_string(v) + ":";
    for (const std::uint32_t m : assign::modules_of(r.placement[v])) {
      placement += " M" + std::to_string(m);
    }
    placement += r.removed[v] ? "  (duplicated)\n" : "\n";
  }

  CompileService service;
  CompileRequest mc;
  mc.id = 1;
  mc.body = fft;
  const CompileResponse mc_resp = service.handle(mc);
  EXPECT_EQ(mc_resp.status, ResponseStatus::kOk);
  EXPECT_EQ(mc_resp.fingerprint, analysis::compiled_fingerprint(c));

  CompileRequest st;
  st.id = 2;
  st.kind = RequestKind::kStream;
  st.body = stream_text;
  const CompileResponse st_resp = service.handle(st);
  EXPECT_EQ(st_resp.status, ResponseStatus::kOk);
  EXPECT_EQ(st_resp.body.rfind(placement, 0), 0u);
}

TEST_F(ServerTest, CacheHitIsByteIdenticalUnderADifferentId) {
  CompileService service;
  const CompileResponse first = service.handle(mc_request(10, /*variant=*/3));
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  // Same compile inputs, different id: served from the cache, and the
  // payload differs from the first response only in the id line.
  const CompileResponse second = service.handle(mc_request(999, /*variant=*/3));
  EXPECT_EQ(service.counters().cache_hits, 1u);
  EXPECT_EQ(second.id, 999u);
  EXPECT_EQ(cacheable_part(second), cacheable_part(first));
  EXPECT_EQ(format_response(second),
            response_from_cache(999, cacheable_part(first)));
}

TEST_F(ServerTest, UserErrorIsTerminalAndNeverRetried) {
  CompileService service;
  CompileRequest req = mc_request(3);
  req.body = "func main( {";  // parse error
  const CompileResponse resp = service.handle(std::move(req));
  EXPECT_EQ(resp.status, ResponseStatus::kUserError);
  EXPECT_FALSE(resp.diagnostic.empty());
  EXPECT_TRUE(resp.body.empty());
  EXPECT_EQ(service.counters().retried, 0u);
  EXPECT_EQ(service.counters().completed, 1u);
}

// EXACT's selects read three distinct scalars; at two modules no word can
// fetch them, so the program is the caller's error, not an internal one.
TEST_F(ServerTest, UnpackableProgramIsAUserError) {
  CompileService service;
  CompileRequest req = mc_request(5);
  req.body = workloads::workload("EXACT").source;
  req.module_count = 2;
  const CompileResponse resp = service.handle(std::move(req));
  EXPECT_EQ(resp.status, ResponseStatus::kUserError);
  EXPECT_NE(resp.diagnostic.find("(select)"), std::string::npos)
      << resp.diagnostic;
  EXPECT_EQ(service.counters().retried, 0u);
}

TEST_F(ServerTest, RequestedStepBudgetIsTerminalAndCacheable) {
  // max_steps is the request's own budget: whatever tier it lands on is a
  // terminal, cacheable result — never retried.
  CompileService service;
  CompileRequest req = mc_request(4);
  req.max_steps = 1;
  const CompileResponse first = service.handle(req);
  EXPECT_TRUE(first.ok());
  EXPECT_FALSE(first.tier.empty());
  EXPECT_EQ(service.counters().retried, 0u);
  // Deterministic: the identical request replays byte-identically from the
  // cache (degraded-by-request results are cacheable too).
  req.id = 44;
  const CompileResponse second = service.handle(req);
  EXPECT_EQ(service.counters().cache_hits, 1u);
  EXPECT_EQ(cacheable_part(second), cacheable_part(first));
}

// A stream whose chain of overlapping tuples makes the compile heavy
// enough (hundreds of ms) to wedge the single worker while the test
// thread's ~50 submits (a few mutex pushes) race far ahead of it.
CompileRequest plug_request() {
  constexpr std::size_t kValues = 12000;
  std::string body = "stream " + std::to_string(kValues) + "\n";
  for (std::size_t i = 0; i + 2 < kValues; ++i) {
    body += "tuple " + std::to_string(i) + " " + std::to_string(i + 1) +
            " " + std::to_string(i + 2) + "\n";
  }
  CompileRequest req;
  req.id = 1000;
  req.kind = RequestKind::kStream;
  req.module_count = 3;
  req.method = assign::DupMethod::kBacktracking;
  req.body = std::move(body);
  return req;
}

TEST_F(ServerTest, ShedsAboveTheHighWatermarkAndEveryRequestIsTerminal) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  CompileService service(opts);

  std::mutex mu;
  std::vector<CompileResponse> responses;
  const auto collect = [&](const CompileResponse& resp) {
    std::lock_guard<std::mutex> lk(mu);
    responses.push_back(resp);
  };

  // The plug occupies the lone worker; everything submitted behind it
  // piles into the 2-deep queue, so admission must start shedding.
  service.submit(plug_request(), collect);
  constexpr std::size_t kCheap = 50;
  for (std::size_t i = 0; i < kCheap; ++i) {
    service.submit(mc_request(i, /*variant=*/i), collect);
  }
  service.drain();

  // Exactly one terminal response per submit, no matter the admission
  // outcome.
  constexpr std::size_t kTotal = kCheap + 1;
  ASSERT_EQ(responses.size(), kTotal);
  const auto c = service.counters();
  EXPECT_EQ(c.accepted + c.shed + c.cache_hits, kTotal);
  EXPECT_EQ(c.completed, kTotal);
  EXPECT_GT(c.shed, 0u) << "1 wedged worker / capacity 2 must shed";
  std::size_t overloaded = 0;
  for (const CompileResponse& resp : responses) {
    if (resp.status == ResponseStatus::kOverloaded) {
      ++overloaded;
      EXPECT_EQ(resp.diagnostic, "queue above the high watermark");
    } else {
      EXPECT_EQ(resp.status, ResponseStatus::kOk);
    }
  }
  EXPECT_EQ(overloaded, c.shed);
}

TEST_F(ServerTest, SubmitAfterDrainIsRejectedAsOverloaded) {
  CompileService service;
  EXPECT_EQ(service.handle(mc_request(1)).status, ResponseStatus::kOk);
  service.drain();
  const CompileResponse resp = service.handle(mc_request(2, 1));
  EXPECT_EQ(resp.status, ResponseStatus::kOverloaded);
  EXPECT_EQ(resp.diagnostic, "service is draining");
}

TEST_F(ServerTest, DrainIsIdempotent) {
  CompileService service;
  service.drain();
  service.drain();  // and the destructor drains a third time
}

TEST_F(ServerTest, ServeHandlesGoodBadAndStreamRequestsOverOneConnection) {
  MemoryStream wire;
  write_frame(wire, format_request(mc_request(7)));
  write_frame(wire, "this is not a request payload");  // valid frame, bad body
  {
    CompileRequest req;
    req.id = 9;
    req.kind = RequestKind::kStream;
    req.module_count = 4;
    req.body = "stream 4\ntuple 0 1\ntuple 2 3\n";
    write_frame(wire, format_request(req));
  }

  MemoryStream conn(wire.output());
  CompileService service;
  EXPECT_EQ(serve(conn, service), 3u);

  // Responses may interleave out of request order; match them by id.
  MemoryStream replies(conn.output());
  std::map<std::uint64_t, CompileResponse> by_id;
  std::string payload;
  while (read_frame(replies, payload)) {
    const CompileResponse resp = parse_response(payload);
    by_id[resp.id] = resp;
  }
  ASSERT_EQ(by_id.size(), 3u);
  EXPECT_EQ(by_id.at(7).status, ResponseStatus::kOk);
  EXPECT_EQ(by_id.at(9).status, ResponseStatus::kOk);
  // The unparseable payload cannot name an id: its error is delivered
  // under id 0.
  EXPECT_EQ(by_id.at(0).status, ResponseStatus::kUserError);
}

TEST_F(ServerTest, ServeStopsAtAMalformedFrameWithOneError) {
  MemoryStream wire;
  write_frame(wire, format_request(mc_request(7)));
  // Garbage after a valid frame: the stream is out of sync, so serve()
  // answers what it has, reports one id-0 kUserError, and ends the loop.
  MemoryStream conn(wire.output() + "garbage bytes, not a frame");
  CompileService service;
  EXPECT_EQ(serve(conn, service), 2u);

  MemoryStream replies(conn.output());
  std::map<std::uint64_t, CompileResponse> by_id;
  std::string payload;
  while (read_frame(replies, payload)) {
    const CompileResponse resp = parse_response(payload);
    by_id[resp.id] = resp;
  }
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_EQ(by_id.at(7).status, ResponseStatus::kOk);
  EXPECT_EQ(by_id.at(0).status, ResponseStatus::kUserError);
}

TEST_F(ServerTest, OversizeStreamHeaderIsAUserError) {
  ServiceOptions opts;
  opts.max_stream_values = 100;
  CompileService service(opts);
  CompileRequest req;
  req.id = 5;
  req.kind = RequestKind::kStream;
  req.body = "stream 101\n";  // declared count above the admission cap
  const CompileResponse resp = service.handle(std::move(req));
  EXPECT_EQ(resp.status, ResponseStatus::kUserError);
  EXPECT_FALSE(resp.diagnostic.empty());
}

// A machine outside 1..kMaxModules modules, or without a functional unit,
// is the caller's error: answered user_error at once and never retried
// (the compile's own internal checks would fail as a transient fault).
TEST_F(ServerTest, OutOfBoundsMachineIsAUserErrorAndNeverRetried) {
  CompileRequest req;
  req.id = 4;
  req.kind = RequestKind::kStream;
  req.module_count = 33;
  req.body = "stream 4\ntuple 0 1\ntuple 2 3\n";

  // Over the wire, parse_request rejects the payload at admission.
  MemoryStream wire;
  write_frame(wire, format_request(req));
  MemoryStream conn(wire.output());
  CompileService service;
  EXPECT_EQ(serve(conn, service), 1u);
  MemoryStream replies(conn.output());
  std::string payload;
  ASSERT_TRUE(read_frame(replies, payload));
  const CompileResponse wire_resp = parse_response(payload);
  EXPECT_EQ(wire_resp.status, ResponseStatus::kUserError);
  EXPECT_NE(wire_resp.diagnostic.find("k 33"), std::string::npos)
      << wire_resp.diagnostic;

  // In process, submit applies the same bounds and keeps the request id.
  const CompileResponse resp = service.handle(req);
  EXPECT_EQ(resp.id, 4u);
  EXPECT_EQ(resp.status, ResponseStatus::kUserError);
  req.module_count = 4;
  req.fu_count = 0;
  EXPECT_EQ(service.handle(req).status, ResponseStatus::kUserError);
  EXPECT_EQ(service.counters().retried, 0u);
  EXPECT_EQ(service.counters().accepted, 0u);
}

// Journal stores are write-behind; drain() flushes both journals, so once
// it returns every resident entry has its file and no evicted one does.
using ServerJournalTest = support::journal_cases::TempDirTest;

TEST_F(ServerJournalTest, DrainLeavesOneFilePerResidentEntry) {
  ServiceOptions opts;
  opts.cache_dir = (dir_ / "results").string();
  opts.cache_max_entries = 4;
  opts.incremental = true;
  opts.atom_cache_dir = (dir_ / "atoms").string();
  CompileService service(opts);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < 8; ++i) {
    const CompileRequest req = mc_request(i + 1, i);
    keys.push_back(cache_key(req));
    ASSERT_EQ(service.handle(req).status, ResponseStatus::kOk);
  }
  service.drain();

  const auto files = [](const std::string& dir, std::string_view suffix) {
    std::size_t n = 0;
    for (const std::string& name : support::list_directory(dir)) {
      EXPECT_TRUE(support::Journal::parse_entry_name(name, suffix).has_value())
          << name;
      ++n;
    }
    return n;
  };
  EXPECT_EQ(service.cache().size(), 4u);
  EXPECT_EQ(files(opts.cache_dir, ResultCache::kSuffix), 4u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // LRU keeps the four most recent results.
    EXPECT_EQ(std::filesystem::exists(service.cache().entry_path(keys[i])),
              i >= 4)
        << i;
  }
  EXPECT_GT(service.atom_cache()->size(), 0u);
  EXPECT_EQ(files(opts.atom_cache_dir, ".atom"), service.atom_cache()->size());
  EXPECT_EQ(service.cache().stats().pending, 0u);
  EXPECT_EQ(service.atom_cache()->stats().pending, 0u);
}

#if PARMEM_FAULT_INJECTION_ENABLED

TEST_F(ServerTest, TransientFaultIsRetriedToSuccess) {
  support::FaultInjector::instance().arm("service.worker",
                                         support::FaultKind::kTimeout);
  CompileService service;
  const CompileResponse resp = service.handle(mc_request(1));
  // Attempt 1 hits the injected timeout (transient); attempt 2 is clean.
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  const auto c = service.counters();
  EXPECT_EQ(c.retried, 1u);
  EXPECT_EQ(c.completed, 1u);
}

TEST_F(ServerTest, ExhaustedRetriesParkOnADegradedFinalAttempt) {
  // With max_attempts=1 a single transient failure exhausts the retry
  // budget immediately; the service must still end the request with a
  // terminal response via the parked (max_steps=1) attempt.
  ServiceOptions opts;
  opts.retry.max_attempts = 1;
  support::FaultInjector::instance().arm("service.worker",
                                         support::FaultKind::kBadAlloc);
  CompileService service(opts);
  const CompileResponse resp = service.handle(mc_request(1));
  EXPECT_TRUE(resp.ok()) << response_status_name(resp.status);
  const auto c = service.counters();
  EXPECT_EQ(c.retried, 0u);
  EXPECT_EQ(c.escalated, 1u);
  EXPECT_EQ(c.completed, 1u);
}

TEST_F(ServerTest, AdmissionFaultIsATerminalInternalError) {
  support::FaultInjector::instance().arm("service.admit",
                                         support::FaultKind::kInternalError);
  CompileService service;
  const CompileResponse resp = service.handle(mc_request(1));
  EXPECT_EQ(resp.status, ResponseStatus::kInternalError);
  EXPECT_EQ(service.counters().completed, 1u);
}

TEST_F(ServerTest, CacheStoreFaultDoesNotAffectTheResponse) {
  support::FaultInjector::instance().arm("service.cache_store",
                                         support::FaultKind::kBadAlloc);
  CompileService service;
  const CompileResponse resp = service.handle(mc_request(1));
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(service.counters().completed, 1u);
}

#endif  // PARMEM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace parmem::service
