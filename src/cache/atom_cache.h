// Persistent atom-granular memo store for incremental recompilation.
//
// AtomCache is the durable backend behind assign::AtomMemoStore: every
// clique-separator decomposition the assigner computes is journaled to disk
// so the *next* compile — in this process or after a daemon restart — whose
// conflict graph has the same structure skips MCS-M and the split.
//
// A thin key shape over support::Journal (journal.h has the format and the
// crash-safety, eviction and warm-load rules): the MemoKind is the journal
// kind, so entries are `<dir>/<2-hex-kind><16-hex-key>.atom`, and the
// closure's check hash is the journal check, so a 64-bit key collision
// reads as a miss, never as a wrong payload. The `cache.atom_journal`
// fault site wraps each entry's read and write.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "assign/incremental.h"
#include "support/journal.h"

namespace parmem::cache {

class AtomCache final : public assign::AtomMemoStore {
 public:
  using Stats = support::Journal::Stats;

  /// Memory-only store when `dir` is empty; otherwise creates `dir` as
  /// needed and warm-loads every valid journal entry. `max_entries` caps
  /// the entry count, 0 = unbounded.
  explicit AtomCache(std::string dir = "", std::size_t max_entries = 0)
      : journal_(std::move(dir), max_entries, ".atom", "cache.atom_journal") {}

  // assign::AtomMemoStore. Thread-safe.
  std::optional<std::string> lookup(assign::MemoKind kind, std::uint64_t key,
                                    std::uint64_t check) override {
    return journal_.lookup(journal_key(kind, key), check);
  }
  void store(assign::MemoKind kind, std::uint64_t key, std::uint64_t check,
             std::string_view payload) override {
    journal_.store(journal_key(kind, key), check, payload);
  }
  void erase(assign::MemoKind kind, std::uint64_t key) override {
    journal_.erase(journal_key(kind, key));
  }

  /// Returns once every store made before the call is on disk.
  void flush() { journal_.flush(); }

  std::size_t size() const { return journal_.size(); }
  const std::string& dir() const { return journal_.dir(); }
  std::size_t max_entries() const { return journal_.max_entries(); }
  Stats stats() const { return journal_.stats(); }

  /// Journal path for an entry ("" for a memory-only cache).
  std::string entry_path(assign::MemoKind kind, std::uint64_t key) const {
    return journal_.entry_path(journal_key(kind, key));
  }

 private:
  static support::Journal::Key journal_key(assign::MemoKind kind,
                                           std::uint64_t key) {
    return {static_cast<std::uint8_t>(kind), key};
  }

  support::Journal journal_;
};

}  // namespace parmem::cache
