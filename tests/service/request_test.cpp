// Request/response payload codec (request.h): canonical round trips, strict
// rejection of malformed payloads, id-independent cache keys, and the
// cacheable-part split that lets one cache entry serve any request id
// byte-identically.
#include "service/request.h"

#include <gtest/gtest.h>

#include <string>

#include "support/diagnostics.h"

namespace parmem::service {
namespace {

CompileRequest full_request() {
  CompileRequest req;
  req.id = 42;
  req.kind = RequestKind::kStream;
  req.module_count = 16;
  req.fu_count = 4;
  req.strategy = assign::Strategy::kStor3;
  req.method = assign::DupMethod::kBacktracking;
  req.rename = true;
  req.deadline_ms = 250;
  req.max_steps = 10000;
  req.body = "stream 3\ntuple 0 1 2\n";
  return req;
}

TEST(RequestCodec, RoundTripsEveryField) {
  const CompileRequest req = full_request();
  const CompileRequest got = parse_request(format_request(req));
  EXPECT_EQ(got.id, req.id);
  EXPECT_EQ(got.kind, req.kind);
  EXPECT_EQ(got.module_count, req.module_count);
  EXPECT_EQ(got.fu_count, req.fu_count);
  EXPECT_EQ(got.strategy, req.strategy);
  EXPECT_EQ(got.method, req.method);
  EXPECT_EQ(got.rename, req.rename);
  EXPECT_EQ(got.deadline_ms, req.deadline_ms);
  EXPECT_EQ(got.max_steps, req.max_steps);
  EXPECT_EQ(got.body, req.body);
  // The encoding is canonical: format(parse(format(r))) == format(r).
  EXPECT_EQ(format_request(got), format_request(req));
}

TEST(RequestCodec, BodyMayContainArbitraryBytes) {
  CompileRequest req;
  req.body = std::string("line\nline\0binary\xff\n", 18);
  const CompileRequest got = parse_request(format_request(req));
  EXPECT_EQ(got.body, req.body);
}

TEST(RequestCodec, MinimalPayloadGetsTheDocumentedDefaults) {
  const CompileRequest got = parse_request("parmem-request 1\nbody 3\nabc\n");
  EXPECT_EQ(got.id, 0u);
  EXPECT_EQ(got.kind, RequestKind::kMc);
  EXPECT_EQ(got.module_count, 8u);
  EXPECT_EQ(got.fu_count, 8u);
  EXPECT_EQ(got.strategy, assign::Strategy::kStor1);
  EXPECT_EQ(got.method, assign::DupMethod::kHittingSet);
  EXPECT_FALSE(got.rename);
  EXPECT_EQ(got.deadline_ms, 0u);
  EXPECT_EQ(got.max_steps, 0u);
  EXPECT_EQ(got.body, "abc");
}

TEST(RequestCodec, MalformedPayloadsAreUserErrors) {
  const char* corpus[] = {
      "",                                          // empty
      "parmem-request 2\nbody 0\n\n",              // wrong version
      "nonsense\n",                                // no version line
      "parmem-request 1\n",                        // no body
      "parmem-request 1\nid 1\nid 2\nbody 0\n\n",  // duplicate field
      "parmem-request 1\nwat 3\nbody 0\n\n",       // unknown field
      "parmem-request 1\nkind tac\nbody 0\n\n",    // unknown kind
      "parmem-request 1\nstrategy STOR9\nbody 0\n\n",
      "parmem-request 1\nmethod exact\nbody 0\n\n",
      "parmem-request 1\nrename maybe\nbody 0\n\n",
      "parmem-request 1\nid -3\nbody 0\n\n",       // malformed number
      "parmem-request 1\nid 99999999999999999999\nbody 0\n\n",  // overflow
      "parmem-request 1\nbody 10\nshort\n",        // body overruns payload
      "parmem-request 1\nbody 3\nabcX",            // missing newline after body
      "parmem-request 1\nbody 0\n\nextra",         // trailing bytes
      "parmem-request 1\nid 1",                    // unterminated line
  };
  for (const char* payload : corpus) {
    SCOPED_TRACE(payload);
    EXPECT_THROW(parse_request(payload), support::UserError);
  }
}

// k and fu outside the machines the compiler targets are the caller's
// error at admission, not an internal check failure deep in the compile.
TEST(RequestCodec, MachineOutsideTheBoundsIsAUserError) {
  for (const char* field : {"k 0", "k 33", "k 18446744073709551615", "fu 0"}) {
    SCOPED_TRACE(field);
    const std::string payload =
        std::string("parmem-request 1\n") + field + "\nbody 0\n\n";
    EXPECT_THROW(parse_request(payload), support::UserError);
  }
  try {
    parse_request("parmem-request 1\nk 33\nbody 0\n\n");
    FAIL() << "expected UserError";
  } catch (const support::UserError& e) {
    EXPECT_NE(std::string(e.what()).find("k 33"), std::string::npos);
  }
  for (const char* field : {"k 1", "k 32", "fu 1"}) {
    SCOPED_TRACE(field);
    const std::string payload =
        std::string("parmem-request 1\n") + field + "\nbody 0\n\n";
    EXPECT_NO_THROW(parse_request(payload));
  }
}

TEST(RequestCodec, ErrorsCarryTheLineNumber) {
  try {
    parse_request("parmem-request 1\nid 1\nwat 3\nbody 0\n\n");
    FAIL() << "expected UserError";
  } catch (const support::UserError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("wat"), std::string::npos);
  }
}

TEST(RequestCodec, CacheKeyIgnoresTheRequestId) {
  CompileRequest a = full_request();
  CompileRequest b = full_request();
  b.id = a.id + 1000;
  EXPECT_EQ(cache_key(a), cache_key(b));

  // ...but is sensitive to every compile-relevant field.
  CompileRequest c = full_request();
  c.body += " ";
  EXPECT_NE(cache_key(a), cache_key(c));
  CompileRequest d = full_request();
  d.module_count++;
  EXPECT_NE(cache_key(a), cache_key(d));
  CompileRequest e = full_request();
  e.method = assign::DupMethod::kHittingSet;
  EXPECT_NE(cache_key(a), cache_key(e));
}

CompileResponse full_response(ResponseStatus status) {
  CompileResponse resp;
  resp.id = 7;
  resp.status = status;
  if (resp.ok()) {
    resp.tier = "heuristic";
    resp.fingerprint = 0xdeadbeef12345678ULL;
    resp.body = "word 0: nop\n";
  } else {
    resp.diagnostic = "something went wrong";
  }
  return resp;
}

TEST(ResponseCodec, RoundTripsEveryStatus) {
  for (const auto status :
       {ResponseStatus::kOk, ResponseStatus::kDegraded,
        ResponseStatus::kUserError, ResponseStatus::kInternalError,
        ResponseStatus::kOverloaded, ResponseStatus::kCancelled}) {
    SCOPED_TRACE(response_status_name(status));
    const CompileResponse resp = full_response(status);
    const CompileResponse got = parse_response(format_response(resp));
    EXPECT_EQ(got.id, resp.id);
    EXPECT_EQ(got.status, resp.status);
    EXPECT_EQ(got.tier, resp.tier);
    EXPECT_EQ(got.diagnostic, resp.diagnostic);
    EXPECT_EQ(got.fingerprint, resp.fingerprint);
    EXPECT_EQ(got.body, resp.body);
  }
}

TEST(ResponseCodec, CacheablePartServesAnyIdByteIdentically) {
  const CompileResponse resp = full_response(ResponseStatus::kOk);
  const std::string cached = cacheable_part(resp);
  // Re-framing the cached part under the original id reproduces the full
  // payload exactly...
  EXPECT_EQ(response_from_cache(resp.id, cached), format_response(resp));
  // ...and under a different id, only the id line differs.
  CompileResponse other = resp;
  other.id = 9999;
  EXPECT_EQ(response_from_cache(9999, cached), format_response(other));
}

TEST(ResponseCodec, MalformedResponsesAreUserErrors) {
  const char* corpus[] = {
      "",
      "parmem-response 2\nid 1\nstatus ok\ndiag 0\n\nbody 0\n\n",
      "parmem-response 1\nstatus ok\ndiag 0\n\nbody 0\n\n",  // id missing
      "parmem-response 1\nid 1\nstatus wat\ndiag 0\n\nbody 0\n\n",
      "parmem-response 1\nid 1\nbody 0\n\n",  // status + diag missing
      "parmem-response 1\nid 1\nstatus ok\ndiag 0\n\nbody 0\n\nx",
  };
  for (const char* payload : corpus) {
    SCOPED_TRACE(payload);
    EXPECT_THROW(parse_response(payload), support::UserError);
  }
}

TEST(Fnv1a64, MatchesTheReferenceConstants) {
  // FNV-1a 64 with the standard offset basis and prime.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 12638187200555641996ULL);
}

}  // namespace
}  // namespace parmem::service
