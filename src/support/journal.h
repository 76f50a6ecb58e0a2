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
// count with LRU eviction, and an evicted entry's file is unlinked, as is
// an erased one's.
//
// Write-behind: store() updates memory (insert, LRU eviction) and returns,
// so the next lookup hits at once; the file work runs on one writer thread
// per on-disk journal. The writer drains a FIFO of deduplicated keys and
// makes each key's file match its residency at the time it is dequeued:
// the payload is encoded from the resident entry, an evicted key's file is
// unlinked. One thread orders every file operation of the journal, so the
// last sync of a key always wins. flush() waits for every key queued before
// it, and the destructor drains the queue. A process SIGKILLed while a key
// is queued loses that entry (a later cold miss), never tears it.
// Memory-only journals start no thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
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
    std::uint64_t pending = 0;       // keys queued for the writer, not synced
  };

  /// Memory-only when `dir` is empty; otherwise creates `dir` as needed and
  /// warm-loads it. `suffix` ends every entry file name. `fault_site` names
  /// the PARMEM_FAULT_POINT around each entry's read and write (nullptr for
  /// none); a fault there costs that one entry.
  Journal(std::string dir, std::size_t max_entries, std::string_view suffix,
          const char* fault_site);
  /// Drains the writer's queue, then joins it.
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The payload stored under `k`, or nullopt (absent or check mismatch).
  /// Thread-safe.
  std::optional<std::string> lookup(Key k, std::uint64_t check);

  /// First-writer-wins insert; re-storing a present key under the same
  /// check only refreshes its recency, under another check replaces it.
  /// Updates memory before it returns; when a dir is configured, queues
  /// the file work for the writer. A persist failure keeps the in-memory
  /// entry and counts store_errors. Thread-safe.
  void store(Key k, std::uint64_t check, std::string_view payload);

  /// Drops the entry under `k`, if resident, so the next store binds a
  /// fresh payload (a resident payload its reader found unusable is never
  /// replaced otherwise). When a dir is configured, queues the key for the
  /// writer, which unlinks its file as it does an evicted key's, unless a
  /// later store has made it resident again by then. Thread-safe.
  void erase(Key k);

  /// Returns once every key queued before the call is synced to its file.
  /// Thread-safe; immediate for a memory-only journal.
  void flush();

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
  /// Queues `k` for the writer unless it is already waiting. Caller holds
  /// mu_.
  void enqueue_locked(Key k);
  /// The writer thread: makes each queued key's file match its residency,
  /// in FIFO order, until stopped and drained.
  void writer_loop();
  /// Publishes k's encoded entry; false (counted by the caller) when the
  /// write fails or the fault site fires.
  bool write_entry(Key k, const std::string& bytes) const;

  std::string dir_;
  std::size_t max_entries_;
  std::string suffix_;
  const char* fault_site_;
  mutable std::mutex mu_;
  Map entries_;
  std::map<std::uint64_t, Key> recency_;  // seq -> key, oldest first
  std::uint64_t next_seq_ = 1;
  Stats stats_;

  // Write-behind queue, under mu_. `queued_` holds the keys in `queue_`,
  // which are not yet dequeued; a key dequeued and being synced may be
  // queued again, since its file must catch up with the later change.
  std::deque<Key> queue_;
  std::unordered_set<Key, KeyHash> queued_;
  std::uint64_t enqueued_ = 0;  // keys ever queued
  std::uint64_t synced_ = 0;    // keys ever synced, in queue order
  bool stop_ = false;
  std::condition_variable work_cv_;    // writer: queue non-empty or stop_
  std::condition_variable synced_cv_;  // flush(): synced_ advanced
  std::thread writer_;
};

}  // namespace parmem::support
