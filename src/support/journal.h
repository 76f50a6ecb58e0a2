// Crash-safe, one-file-per-entry journal store: the persistence layer under
// service::ResultCache and cache::AtomCache (DESIGN.md §12, "The journal
// store"). This file alone owns the on-disk format.
//
// An entry is keyed by (kind, key) and holds a payload plus a secondary
// `check` hash. Each entry is one file under `dir`:
//
//   <dir>/<16-hex-key><suffix>               kind 0
//   <dir>/<2-hex-kind><16-hex-key><suffix>   kind 1..255
//
// whose content is a one-line header followed by the payload:
//
//   "parmem-journal 1 <kind> <16-hex-check> <len> <16-hex-fnv1a64(payload)>\n"
//
// Files are published with support::write_file_atomic (write temp sibling,
// fsync, rename), so a process killed at any instruction leaves either a
// complete entry or a `.tmp-*` orphan. A warm restart loads every valid
// entry oldest-mtime first, so rebuilt recency matches on-disk age. Torn,
// truncated, corrupt, foreign and orphaned files are skipped and counted in
// Stats::load_errors: the store is an accelerator, and a damaged journal is
// a cold start, never a wrong payload or a crashed process. A directory
// that cannot be created degrades the store to memory-only.
//
// Semantics: first writer wins per (kind, key, check), so replays stay
// byte-identical; a lookup whose check differs from the stored one is a
// miss, and a store under a different check replaces the entry (it could
// never serve that check); `max_entries` (0 = unbounded) caps the entry
// count with LRU eviction, and an evicted entry's file is unlinked.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace parmem::support {

class Journal {
 public:
  struct Key {
    std::uint8_t kind = 0;
    std::uint64_t key = 0;
    bool operator==(const Key&) const = default;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t check_mismatches = 0;  // key present, check hash differed
    std::uint64_t stores = 0;
    std::uint64_t store_errors = 0;  // persist failures (entry stays in RAM)
    std::uint64_t loaded = 0;        // entries recovered at construction
    std::uint64_t load_errors = 0;   // corrupt/orphaned files skipped
    std::uint64_t evicted = 0;       // LRU victims dropped (file unlinked)
  };

  /// Memory-only when `dir` is empty; otherwise creates `dir` as needed and
  /// warm-loads it. `suffix` ends every entry file name. `fault_site` names
  /// the PARMEM_FAULT_POINT around each entry's read and write (nullptr for
  /// none); a fault there costs that one entry.
  Journal(std::string dir, std::size_t max_entries, std::string_view suffix,
          const char* fault_site);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The payload stored under `k`, or nullopt (absent or check mismatch).
  /// Thread-safe.
  std::optional<std::string> lookup(Key k, std::uint64_t check);

  /// First-writer-wins insert; re-storing a present key under the same
  /// check only refreshes its recency, under another check replaces it.
  /// Persists when a dir is configured; a persist failure keeps the
  /// in-memory entry and counts store_errors. Thread-safe.
  void store(Key k, std::uint64_t check, std::string_view payload);

  std::size_t size() const;
  const std::string& dir() const { return dir_; }
  std::size_t max_entries() const { return max_entries_; }
  Stats stats() const;

  /// Journal path for `k` ("" when memory-only).
  std::string entry_path(Key k) const;

  /// The entry file name for `k`, and its inverse. The parser rejects
  /// other suffixes, `.tmp-*` siblings, non-hex digits and a zero kind
  /// prefix.
  static std::string entry_name(Key k, std::string_view suffix);
  static std::optional<Key> parse_entry_name(std::string_view name,
                                             std::string_view suffix);

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          k.key ^ (static_cast<std::uint64_t>(k.kind) << 56));
    }
  };
  struct Entry {
    std::uint64_t check = 0;
    std::string payload;
    std::uint64_t seq = 0;  // recency stamp; larger = more recent
  };
  using Map = std::unordered_map<Key, Entry, KeyHash>;

  void load();
  /// Moves `it` to the back of the recency order. Caller holds mu_.
  void touch(Map::iterator it);
  /// Evicts LRU entries until size <= max_entries_; returns the victims.
  /// Caller holds mu_.
  std::vector<Key> evict_locked();
  /// Makes k's file match its residency: writes a resident entry, unlinks
  /// a non-resident one.
  void sync_file(Key k);

  std::string dir_;
  std::size_t max_entries_;
  std::string suffix_;
  const char* fault_site_;
  mutable std::mutex mu_;
  Map entries_;
  std::map<std::uint64_t, Key> recency_;  // seq -> key, oldest first
  std::uint64_t next_seq_ = 1;
  Stats stats_;
  /// Serialises the file operations of the keys hashed to each stripe.
  std::array<std::mutex, 16> file_mu_;
};

}  // namespace parmem::support
