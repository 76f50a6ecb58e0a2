// Compile-service request/response payloads.
//
// A request payload is a line-oriented text header followed by a raw,
// length-prefixed body (MC source for `kind mc`, stream_io text for
// `kind stream`):
//
//   parmem-request 1
//   id 42
//   kind mc
//   k 8
//   fu 8
//   strategy STOR1
//   method hs
//   rename 0
//   deadline_ms 25
//   max_steps 0
//   body 57
//   func main() { ... }
//
// Every header line except the version, `kind` and `body` is optional and
// defaults as shown; unknown keys, repeated keys, and a body whose byte
// count disagrees with the payload are support::UserError — the service
// never guesses at a malformed request.
//
// A response payload mirrors the shape. Everything after the `id` line is
// the *cacheable part*: a pure function of the compile outcome, stored
// verbatim by the result cache and replayed byte-identically on a warm
// restart (the id line is re-attached per request, so two requests with
// identical inputs but different ids share one cache entry).
//
//   parmem-response 1
//   id 42
//   status ok
//   tier heuristic
//   fingerprint 1a2b3c4d5e6f7081
//   diag 0
//   body 112
//   ...
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "assign/assigner.h"
#include "support/fnv.h"

namespace parmem::service {

enum class RequestKind : std::uint8_t { kMc, kStream };
const char* request_kind_name(RequestKind k);

struct CompileRequest {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kMc;
  std::size_t module_count = 8;
  std::size_t fu_count = 8;
  assign::Strategy strategy = assign::Strategy::kStor1;
  assign::DupMethod method = assign::DupMethod::kHittingSet;
  bool rename = false;
  /// Wall-clock deadline for this request; 0 inherits the service default.
  std::uint64_t deadline_ms = 0;
  /// Cooperative step budget; 0 = unlimited.
  std::uint64_t max_steps = 0;
  /// MC source (kind mc) or stream_io text (kind stream).
  std::string body;
};

/// Canonical serialization; parse_request(format_request(r)) == r.
std::string format_request(const CompileRequest& req);

/// Throws support::UserError on any malformed payload, and on a machine
/// check_machine() rejects.
CompileRequest parse_request(std::string_view payload);

/// Throws support::UserError unless the request names a machine the
/// compiler can target: 1 <= k <= support::kMaxModules and fu >= 1. Outside
/// those bounds the assigner and scheduler would fail an internal check,
/// which the service retries as transient; a caller's error must be
/// answered as one.
void check_machine(const CompileRequest& req);

/// Content-hash cache key: FNV-1a 64 over the canonical encoding with the
/// id zeroed, so equal compile inputs share a key regardless of request id.
std::uint64_t cache_key(const CompileRequest& req);

/// Every response status is terminal — a request gets exactly one of these.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,             // compiled at full effort; body holds the artifact
  kDegraded = 1,       // compiled, but the budget forced a degraded tier
  kUserError = 2,      // malformed request payload / source (not retried)
  kInternalError = 3,  // library fault that survived the retry policy
  kOverloaded = 4,     // shed at admission: queue above the high watermark
  kCancelled = 5,      // deadline expired before/while compiling usefully
};
const char* response_status_name(ResponseStatus s);

struct CompileResponse {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kInternalError;
  /// assign::tier_name of the result (ok/degraded only, else empty).
  std::string tier;
  /// One-line failure explanation (empty on ok).
  std::string diagnostic;
  /// analysis::compiled_fingerprint of the artifact (ok/degraded only).
  std::uint64_t fingerprint = 0;
  /// Textual compiled artifact (LIW program + placement), empty on failure.
  std::string body;

  bool ok() const {
    return status == ResponseStatus::kOk || status == ResponseStatus::kDegraded;
  }
};

/// Full payload: version line + id line + cacheable_part.
std::string format_response(const CompileResponse& resp);

/// The bytes after the id line — what the result cache stores.
std::string cacheable_part(const CompileResponse& resp);

/// Re-frames a cached part under a new request id. The returned payload is
/// byte-identical to the original response whenever the id matches.
std::string response_from_cache(std::uint64_t id, std::string_view cached);

/// Throws support::UserError on any malformed payload.
CompileResponse parse_response(std::string_view payload);

/// FNV-1a 64 of an arbitrary byte string (the request cache key and the
/// response fingerprint).
using support::fnv1a64;

}  // namespace parmem::service
