#include "service/request.h"

#include "support/diagnostics.h"
#include "support/matching.h"
#include "support/text.h"

namespace parmem::service {
namespace {

[[noreturn]] void payload_error(const char* what, std::size_t line_no,
                                const std::string& msg) {
  throw support::UserError(std::string(what) + " payload error (line " +
                           std::to_string(line_no) + "): " + msg);
}

/// Line-oriented cursor over a payload. Raw (length-prefixed) segments are
/// consumed byte-exactly and must be followed by a single '\n' separator —
/// the formats stay strict enough to round-trip byte-identically while
/// remaining greppable in a hex dump.
struct Cursor {
  std::string_view text;
  const char* what;
  std::size_t pos = 0;
  std::size_t line_no = 0;

  bool at_end() const { return pos >= text.size(); }

  std::string_view next_line() {
    ++line_no;
    if (at_end()) payload_error(what, line_no, "unexpected end of payload");
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      payload_error(what, line_no, "unterminated line");
    }
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  }

  std::string raw_segment(std::size_t n) {
    if (text.size() - pos < n + 1) {
      payload_error(what, line_no,
                    "raw segment of " + std::to_string(n) +
                        " bytes overruns the payload");
    }
    std::string out(text.substr(pos, n));
    pos += n;
    if (text[pos] != '\n') {
      payload_error(what, line_no, "missing newline after raw segment");
    }
    ++pos;
    return out;
  }
};

/// Splits "key value" on the first space; value may be empty.
void split_kv(std::string_view line, std::string_view& key,
              std::string_view& value) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    key = line;
    value = {};
  } else {
    key = line.substr(0, sp);
    value = line.substr(sp + 1);
  }
}

std::uint64_t parse_u64(Cursor& c, std::string_view value,
                        std::string_view key) {
  if (value.empty()) {
    payload_error(c.what, c.line_no,
                  "expected a number after '" + std::string(key) + "'");
  }
  std::uint64_t v = 0;
  for (const char ch : value) {
    if (ch < '0' || ch > '9') {
      payload_error(c.what, c.line_no,
                    "malformed number '" + std::string(value) + "' for '" +
                        std::string(key) + "'");
    }
    const auto d = static_cast<std::uint64_t>(ch - '0');
    if (v > (~std::uint64_t{0} - d) / 10) {
      payload_error(c.what, c.line_no,
                    "number out of range for '" + std::string(key) + "'");
    }
    v = v * 10 + d;
  }
  return v;
}

std::uint64_t parse_hex(Cursor& c, std::string_view value,
                        std::string_view key) {
  const auto v = support::parse_hex64(value);
  if (!v.has_value()) {
    payload_error(c.what, c.line_no,
                  "expected 1 to 16 lowercase hex digits for '" +
                      std::string(key) + "', got '" + std::string(value) +
                      "'");
  }
  return *v;
}

void append_raw(std::string& out, std::string_view key, std::string_view raw) {
  out.append(key);
  out.push_back(' ');
  out.append(std::to_string(raw.size()));
  out.push_back('\n');
  out.append(raw);
  out.push_back('\n');
}

}  // namespace

const char* request_kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kMc: return "mc";
    case RequestKind::kStream: return "stream";
  }
  return "?";
}

const char* response_status_name(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDegraded: return "degraded";
    case ResponseStatus::kUserError: return "user-error";
    case ResponseStatus::kInternalError: return "internal-error";
    case ResponseStatus::kOverloaded: return "overloaded";
    case ResponseStatus::kCancelled: return "cancelled";
  }
  return "?";
}

std::string format_request(const CompileRequest& req) {
  std::string out = "parmem-request 1\n";
  out += "id " + std::to_string(req.id) + '\n';
  out += std::string("kind ") + request_kind_name(req.kind) + '\n';
  out += "k " + std::to_string(req.module_count) + '\n';
  out += "fu " + std::to_string(req.fu_count) + '\n';
  out += std::string("strategy ") + assign::strategy_name(req.strategy) + '\n';
  out += std::string("method ") +
         (req.method == assign::DupMethod::kBacktracking ? "bt" : "hs") + '\n';
  out += std::string("rename ") + (req.rename ? "1" : "0") + '\n';
  out += "deadline_ms " + std::to_string(req.deadline_ms) + '\n';
  out += "max_steps " + std::to_string(req.max_steps) + '\n';
  append_raw(out, "body", req.body);
  return out;
}

CompileRequest parse_request(std::string_view payload) {
  Cursor c{payload, "request"};
  if (c.next_line() != "parmem-request 1") {
    payload_error(c.what, c.line_no,
                  "expected version line 'parmem-request 1'");
  }
  CompileRequest req;
  bool seen[9] = {};
  enum { kId, kKind, kK, kFu, kStrategy, kMethod, kRename, kDeadline, kSteps };
  const auto once = [&](int field, std::string_view key) {
    if (seen[field]) {
      payload_error(c.what, c.line_no,
                    "duplicate field '" + std::string(key) + "'");
    }
    seen[field] = true;
  };
  for (;;) {
    const std::string_view line = c.next_line();
    std::string_view key, value;
    split_kv(line, key, value);
    if (key == "body") {
      const std::uint64_t n = parse_u64(c, value, key);
      req.body = c.raw_segment(static_cast<std::size_t>(n));
      break;
    } else if (key == "id") {
      once(kId, key);
      req.id = parse_u64(c, value, key);
    } else if (key == "kind") {
      once(kKind, key);
      if (value == "mc") req.kind = RequestKind::kMc;
      else if (value == "stream") req.kind = RequestKind::kStream;
      else {
        payload_error(c.what, c.line_no,
                      "unknown kind '" + std::string(value) +
                          "' (expected mc|stream)");
      }
    } else if (key == "k") {
      once(kK, key);
      req.module_count = static_cast<std::size_t>(parse_u64(c, value, key));
    } else if (key == "fu") {
      once(kFu, key);
      req.fu_count = static_cast<std::size_t>(parse_u64(c, value, key));
    } else if (key == "strategy") {
      once(kStrategy, key);
      if (value == "STOR1") req.strategy = assign::Strategy::kStor1;
      else if (value == "STOR2") req.strategy = assign::Strategy::kStor2;
      else if (value == "STOR3") req.strategy = assign::Strategy::kStor3;
      else {
        payload_error(c.what, c.line_no,
                      "unknown strategy '" + std::string(value) + "'");
      }
    } else if (key == "method") {
      once(kMethod, key);
      if (value == "bt") req.method = assign::DupMethod::kBacktracking;
      else if (value == "hs") req.method = assign::DupMethod::kHittingSet;
      else {
        payload_error(c.what, c.line_no,
                      "unknown method '" + std::string(value) +
                          "' (expected bt|hs)");
      }
    } else if (key == "rename") {
      once(kRename, key);
      if (value == "0") req.rename = false;
      else if (value == "1") req.rename = true;
      else {
        payload_error(c.what, c.line_no,
                      "expected 0 or 1 for 'rename'");
      }
    } else if (key == "deadline_ms") {
      once(kDeadline, key);
      req.deadline_ms = parse_u64(c, value, key);
    } else if (key == "max_steps") {
      once(kSteps, key);
      req.max_steps = parse_u64(c, value, key);
    } else {
      payload_error(c.what, c.line_no,
                    "unknown field '" + std::string(key) + "'");
    }
  }
  if (!c.at_end()) {
    payload_error(c.what, c.line_no, "trailing bytes after body");
  }
  check_machine(req);
  return req;
}

void check_machine(const CompileRequest& req) {
  if (req.module_count < 1 || req.module_count > support::kMaxModules) {
    throw support::UserError("request k " + std::to_string(req.module_count) +
                             " is outside 1.." +
                             std::to_string(support::kMaxModules));
  }
  if (req.fu_count == 0) {
    throw support::UserError("request fu 0: a word needs a functional unit");
  }
}

std::uint64_t cache_key(const CompileRequest& req) {
  CompileRequest canonical = req;
  canonical.id = 0;
  return fnv1a64(format_request(canonical));
}

std::string cacheable_part(const CompileResponse& resp) {
  std::string out;
  out += std::string("status ") + response_status_name(resp.status) + '\n';
  if (!resp.tier.empty()) out += "tier " + resp.tier + '\n';
  if (resp.ok()) {
    out += "fingerprint " + support::hex16(resp.fingerprint) + '\n';
  }
  append_raw(out, "diag", resp.diagnostic);
  append_raw(out, "body", resp.body);
  return out;
}

std::string response_from_cache(std::uint64_t id, std::string_view cached) {
  std::string out = "parmem-response 1\nid " + std::to_string(id) + '\n';
  out.append(cached);
  return out;
}

std::string format_response(const CompileResponse& resp) {
  return response_from_cache(resp.id, cacheable_part(resp));
}

CompileResponse parse_response(std::string_view payload) {
  Cursor c{payload, "response"};
  if (c.next_line() != "parmem-response 1") {
    payload_error(c.what, c.line_no,
                  "expected version line 'parmem-response 1'");
  }
  CompileResponse resp;
  {
    std::string_view key, value;
    split_kv(c.next_line(), key, value);
    if (key != "id") payload_error(c.what, c.line_no, "expected 'id'");
    resp.id = parse_u64(c, value, key);
  }
  bool status_seen = false, diag_seen = false;
  for (;;) {
    const std::string_view line = c.next_line();
    std::string_view key, value;
    split_kv(line, key, value);
    if (key == "status") {
      status_seen = true;
      bool known = false;
      for (const auto s :
           {ResponseStatus::kOk, ResponseStatus::kDegraded,
            ResponseStatus::kUserError, ResponseStatus::kInternalError,
            ResponseStatus::kOverloaded, ResponseStatus::kCancelled}) {
        if (value == response_status_name(s)) {
          resp.status = s;
          known = true;
          break;
        }
      }
      if (!known) {
        payload_error(c.what, c.line_no,
                      "unknown status '" + std::string(value) + "'");
      }
    } else if (key == "tier") {
      resp.tier = std::string(value);
    } else if (key == "fingerprint") {
      resp.fingerprint = parse_hex(c, value, key);
    } else if (key == "diag") {
      diag_seen = true;
      resp.diagnostic =
          c.raw_segment(static_cast<std::size_t>(parse_u64(c, value, key)));
    } else if (key == "body") {
      resp.body =
          c.raw_segment(static_cast<std::size_t>(parse_u64(c, value, key)));
      break;
    } else {
      payload_error(c.what, c.line_no,
                    "unknown field '" + std::string(key) + "'");
    }
  }
  if (!status_seen || !diag_seen) {
    payload_error(c.what, c.line_no, "missing 'status' or 'diag' field");
  }
  if (!c.at_end()) {
    payload_error(c.what, c.line_no, "trailing bytes after body");
  }
  return resp;
}

}  // namespace parmem::service
