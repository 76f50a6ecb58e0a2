// Small string utilities shared across the library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parmem::support {

/// Splits on a single-character separator; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view sep);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// `v` as exactly 16 lowercase hex digits.
std::string hex16(std::uint64_t v);

/// Parses 1 to 16 lowercase hex digits; nullopt for anything else.
std::optional<std::uint64_t> parse_hex64(std::string_view text);

}  // namespace parmem::support
