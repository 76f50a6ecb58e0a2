// Minimal streaming JSON writer.
//
// Every bench report and the telemetry trace exporter emit JSON; before this
// header each writer hand-rolled its own fprintf formatting and escaping.
// JsonWriter centralizes the mechanical parts — comma placement, nesting,
// string escaping, number formatting — while keeping the call sites in
// control of document shape. The writer builds the document in a string so
// callers can either fwrite it or embed it in a larger report.
//
// Usage:
//   JsonWriter w;
//   w.begin_object();
//   w.member("bench", "incremental_recompile");
//   w.key("entries");
//   w.begin_array();
//   ...
//   w.end_array();
//   w.end_object();
//   fputs(w.str().c_str(), f);
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parmem::support {

/// Escapes `s` for inclusion in a JSON string literal (surrounding quotes
/// are not added): quote, backslash, and control characters.
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  /// @param indent spaces per nesting level; 0 emits a compact document.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Writes an object key; the next value() / begin_*() is its value.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  // std::size_t and std::uint64_t are the same type on our targets; add a
  // distinct overload here if a 32-bit port ever needs one.
  /// Shortest-round-trip formatting ("%.17g" trimmed via "%g" when exact).
  void value(double d);
  /// Fixed-point formatting ("%.*f") — the bench reports' ms columns.
  void value_fixed(double d, int digits);
  void null();

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view k, const T& v) {
    key(k);
    value(v);
  }
  void member_fixed(std::string_view k, double v, int digits) {
    key(k);
    value_fixed(v, digits);
  }

  /// The document so far; a complete document once nesting is closed.
  const std::string& str() const { return out_; }

 private:
  /// Comma/newline/indent bookkeeping before an item is written at the
  /// current nesting level.
  void pre_item();
  void newline_indent();

  std::string out_;
  std::vector<bool> has_item_;  // per open container: wrote an item yet?
  bool pending_key_ = false;    // last token was a key
  int indent_ = 2;
};

}  // namespace parmem::support
