// Crash-safe, content-addressed result cache for the compile service.
//
// Key = request cache_key() (FNV-1a over the canonical request encoding
// with the id zeroed); value = the response's cacheable part (request.h) —
// the bytes after the id line, so a hit replays byte-identically under any
// request id.
//
// A thin key shape over support::Journal (journal.h has the format and the
// crash-safety, eviction and warm-load rules): every entry is kind 0 with
// check kOutputVersion, so the journal holds one `<dir>/<16-hex-key>.res`
// file per entry. The router's shard migration (router/rebalance.h) routes
// those files by name.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/journal.h"

namespace parmem::service {

class ResultCache {
 public:
  using Stats = support::Journal::Stats;

  /// Entry file suffix: `<16-hex-key>.res`.
  static constexpr std::string_view kSuffix = ".res";

  /// The check every entry is journaled under: the version of the bytes a
  /// compile produces. Bump it whenever the same request can compile to
  /// different bytes; an entry from another version then misses, and the
  /// next store of its key replaces it. Version 0 predates the single
  /// atom-task assignment algorithm.
  static constexpr std::uint64_t kOutputVersion = 1;

  /// Memory-only cache when `dir` is empty; otherwise creates `dir` as
  /// needed and warm-loads every valid journal entry. `max_entries` caps
  /// the entry count with LRU eviction, 0 = unbounded.
  explicit ResultCache(std::string dir = "", std::size_t max_entries = 0)
      : journal_(std::move(dir), max_entries, kSuffix, nullptr) {}

  /// The cached response part, or nullopt. Thread-safe.
  std::optional<std::string> lookup(std::uint64_t key) {
    return journal_.lookup({0, key}, kOutputVersion);
  }

  /// First-writer-wins insert (re-serving must stay byte-identical, so
  /// later results for the same key are dropped). Thread-safe.
  void store(std::uint64_t key, std::string_view cached_part) {
    journal_.store({0, key}, kOutputVersion, cached_part);
  }

  /// Returns once every store made before the call is on disk.
  void flush() { journal_.flush(); }

  std::size_t size() const { return journal_.size(); }
  const std::string& dir() const { return journal_.dir(); }
  std::size_t max_entries() const { return journal_.max_entries(); }
  Stats stats() const { return journal_.stats(); }

  /// Journal path for `key` ("" for a memory-only cache).
  std::string entry_path(std::uint64_t key) const {
    return journal_.entry_path({0, key});
  }

 private:
  support::Journal journal_;
};

}  // namespace parmem::service
