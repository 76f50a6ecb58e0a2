#include "ir/stream_io.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace parmem::ir {
namespace {

/// Largest accepted `stream <value_count>` header. Per-value metadata is
/// two bit-vectors, so this bounds the allocation a hostile header can
/// force to a few MB instead of a bad_alloc (or worse, a silent wrap).
constexpr std::uint64_t kMaxValueCount = std::uint64_t{1} << 28;

/// One whitespace-separated token plus its 1-based source column. `text`
/// views the caller's input, so tokenizing allocates nothing.
struct Tok {
  std::string_view text;
  std::size_t col = 1;
};

[[noreturn]] void io_error(std::string_view name, std::size_t line,
                           std::size_t col, const std::string& msg) {
  throw support::UserError(std::string(name) + ":" + std::to_string(line) +
                           ":" + std::to_string(col) +
                           ": stream parse error (line " +
                           std::to_string(line) + "): " + msg);
}

std::uint64_t parse_number(const Tok& tok, std::string_view name,
                           std::size_t line, std::size_t extra_col = 0) {
  std::uint64_t v = 0;
  std::string_view digits(tok.text);
  digits.remove_prefix(extra_col);
  const std::size_t col = tok.col + extra_col;
  if (digits.empty()) io_error(name, line, col, "expected a number");
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') {
      io_error(name, line, col,
               "malformed number '" + std::string(digits) + "'");
    }
    const auto d = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
      io_error(name, line, col,
               "number out of range: '" + std::string(digits) + "'");
    }
    v = v * 10 + d;
  }
  return v;
}

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Splits `line` into `toks` (cleared first); '#' starts a comment.
void tokenize(std::string_view line, std::vector<Tok>& toks) {
  toks.clear();
  for (std::size_t i = 0; i < line.size();) {
    const char c = line[i];
    if (c == '#') break;
    if (is_blank(c)) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i]) && line[i] != '#') ++i;
    toks.push_back({line.substr(start, i - start), start + 1});
  }
}

}  // namespace

AccessStream parse_stream(std::string_view text,
                          std::string_view source_name) {
  return parse_stream(text, source_name, kMaxValueCount);
}

// One pass over `text`: each line is a view, tokens are views into it, and
// one tuple's operands collect in a reused scratch vector, so the only
// allocations are the result's own (per-value flags, one exact-size
// operand array per tuple) and the scratch's high-water marks. Nothing is
// sized from the raw line count, so blank lines cost nothing.
AccessStream parse_stream(std::string_view text, std::string_view source_name,
                          std::uint64_t max_value_count) {
  const std::uint64_t cap = std::min(max_value_count, kMaxValueCount);
  AccessStream s;
  bool header_seen = false;
  std::size_t line_no = 0;
  std::vector<Tok> toks;
  std::vector<ValueId> operands;

  // A final line without '\n' is still a line; so is the empty text.
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view raw = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    tokenize(raw, toks);
    if (toks.empty()) continue;
    const std::string_view kind = toks[0].text;
    const std::size_t kind_col = toks[0].col;

    if (kind == "stream") {
      if (header_seen) {
        io_error(source_name, line_no, kind_col, "duplicate 'stream' header");
      }
      if (toks.size() != 2) {
        io_error(source_name, line_no, kind_col,
                 "usage: stream <value_count>");
      }
      header_seen = true;
      const std::uint64_t n = parse_number(toks[1], source_name, line_no);
      if (n > cap) {
        io_error(source_name, line_no, toks[1].col,
                 "value_count " + std::to_string(n) + " exceeds the limit " +
                     std::to_string(cap));
      }
      s.value_count = static_cast<std::size_t>(n);
      s.duplicatable.assign(s.value_count, true);
      s.global.assign(s.value_count, false);
      continue;
    }
    if (!header_seen) {
      io_error(source_name, line_no, kind_col,
               "'stream <n>' header must come first");
    }

    const auto check_id = [&](std::uint64_t id, std::size_t col) {
      if (id >= s.value_count) {
        io_error(source_name, line_no, col,
                 "value id " + std::to_string(id) +
                     " out of range (value_count = " +
                     std::to_string(s.value_count) + ")");
      }
      return static_cast<ValueId>(id);
    };

    if (kind == "mutable" || kind == "global") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const ValueId v = check_id(parse_number(toks[i], source_name, line_no),
                                   toks[i].col);
        if (kind == "mutable") {
          s.duplicatable[v] = false;
        } else {
          s.global[v] = true;
        }
      }
      continue;
    }
    if (kind == "tuple") {
      RegionId region = 0;
      std::size_t start = 1;
      if (toks.size() > 1 && toks[1].text.size() > 1 &&
          toks[1].text[0] == '@') {
        region = static_cast<RegionId>(
            parse_number(toks[1], source_name, line_no, /*extra_col=*/1));
        start = 2;
      }
      operands.clear();
      for (std::size_t i = start; i < toks.size(); ++i) {
        operands.push_back(check_id(
            parse_number(toks[i], source_name, line_no), toks[i].col));
      }
      if (operands.empty()) {
        io_error(source_name, line_no, kind_col, "empty tuple");
      }
      std::sort(operands.begin(), operands.end());
      const auto last = std::unique(operands.begin(), operands.end());
      AccessTuple& t = s.tuples.emplace_back();
      t.operands.assign(operands.begin(), last);
      t.region = region;
      continue;
    }
    io_error(source_name, line_no, kind_col,
             "unknown directive '" + std::string(kind) + "'");
  }
  if (!header_seen) {
    io_error(source_name, 1, 1, "missing 'stream <n>' header");
  }
  return s;
}

std::string format_stream(const AccessStream& stream) {
  std::ostringstream os;
  os << "stream " << stream.value_count << '\n';
  const auto emit_flag_line = [&](const char* name,
                                  const std::vector<bool>& flags,
                                  bool when) {
    bool any = false;
    for (std::size_t v = 0; v < flags.size(); ++v) {
      if (flags[v] == when) {
        if (!any) os << name;
        any = true;
        os << ' ' << v;
      }
    }
    if (any) os << '\n';
  };
  emit_flag_line("mutable", stream.duplicatable, false);
  emit_flag_line("global", stream.global, true);
  for (const AccessTuple& t : stream.tuples) {
    os << "tuple";
    if (t.region != 0) os << " @" << t.region;
    for (const ValueId v : t.operands) os << ' ' << v;
    os << '\n';
  }
  return os.str();
}

}  // namespace parmem::ir
