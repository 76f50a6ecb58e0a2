// Crash-safe file primitives under the journal store (support/journal.h)
// and the router's shard migration.
//
// The durability contract the journal depends on: a reader never observes
// a half-written entry. write_file_atomic writes to a sibling temp file and
// renames it over the target — rename(2) is atomic on POSIX, so a process
// killed at any instruction leaves either the old complete file, the new
// complete file, or an orphaned `.tmp-*` sibling that readers ignore.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace parmem::support {

/// Writes `bytes` to `path` via write-temp-then-atomic-rename. Creates the
/// parent directory's temp sibling as `<path>.tmp-<pid>`; fsyncs before the
/// rename so the rename never publishes an empty file after a power cut.
/// Returns false (leaving any previous `path` content intact) when any step
/// fails; the temp file is unlinked on failure.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads a whole file. nullopt when the file cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

/// Creates `dir` (and missing parents). Returns true when the directory
/// exists afterwards.
bool ensure_directory(const std::string& dir);

/// Non-recursive listing of regular-file names (not paths) in `dir`, sorted.
/// Empty when the directory cannot be read.
std::vector<std::string> list_directory(const std::string& dir);

/// Unlinks a file; true when the file is gone afterwards (including when it
/// never existed).
bool remove_file(const std::string& path);

/// Last-modification time of `path` in nanoseconds since the filesystem
/// clock's epoch, or nullopt when the file cannot be stat'ed. Only the
/// ordering between two results is meaningful (used to rebuild cache
/// recency on warm restart).
std::optional<std::int64_t> file_mtime(const std::string& path);

}  // namespace parmem::support
