// Journal store semantics (support/journal.h), run against the bare store:
// round trips, first-writer-wins, damaged and orphaned files, eviction and
// recency across a restart, the entry-name codec, kind and format checks on
// warm load, concurrent stores racing eviction against file publishing,
// the write-behind contract (memory first, flush, drain on destruction)
// and erase.
#include "support/journal.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "journal_cases.h"
#include "support/fault_injection.h"
#include "support/file_io.h"

namespace parmem::support {
namespace {

namespace cases = journal_cases;
namespace fs = std::filesystem;
using Key = Journal::Key;

constexpr std::string_view kSuffix = ".ent";

struct TestJournal : Journal {
  TestJournal(std::string dir, std::size_t max_entries)
      : Journal(std::move(dir), max_entries, kSuffix, nullptr) {}
};

struct BareShape {
  using Store = TestJournal;
  static void put(Store& s, std::uint64_t key, std::string_view payload) {
    s.store({0, key}, 0, payload);
  }
  static std::optional<std::string> get(Store& s, std::uint64_t key) {
    return s.lookup({0, key}, 0);
  }
  static std::string path(const Store& s, std::uint64_t key) {
    return s.entry_path({0, key});
  }
};

using JournalTest = cases::TempDirTest;

TEST_F(JournalTest, MemoryOnlyRoundTrip) {
  TestJournal s("", 0);
  EXPECT_FALSE(s.lookup({0, 7}, 0).has_value());
  s.store({0, 7}, 0, "payload");
  EXPECT_EQ(s.lookup({0, 7}, 0).value(), "payload");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.entry_path({0, 7}).empty());
  const auto stats = s.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(JournalTest, FirstWriterWins) {
  TestJournal s("", 0);
  s.store({0, 5}, 0, "original");
  s.store({0, 5}, 0, "imposter");
  // Byte-identical replay: a key is only ever bound to one payload.
  EXPECT_EQ(s.lookup({0, 5}, 0).value(), "original");
  EXPECT_EQ(s.stats().stores, 1u);
}

TEST_F(JournalTest, SurvivesARestart) {
  cases::survives_a_restart<BareShape>(dir_);
}

TEST_F(JournalTest, DamagedEntriesAreSkippedNotFatal) {
  std::string truncated, flipped, garbage;
  {
    TestJournal s(dir_str(), 0);
    s.store({0, 1}, 0, "good");
    s.store({0, 2}, 0, "will-be-truncated");
    s.store({0, 3}, 0, "will-be-flipped");
    truncated = s.entry_path({0, 2});
    flipped = s.entry_path({0, 3});
    garbage = s.entry_path({0, 0xff});
  }
  // Truncate one entry mid-payload (a torn write that bypassed the atomic
  // rename), flip a payload byte in another, and put garbage under a
  // valid name.
  const std::string bytes = read_file(truncated).value();
  std::ofstream(truncated, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() - 4);
  {
    std::fstream f(flipped, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  std::ofstream(garbage) << "not a journal entry";

  TestJournal warm(dir_str(), 0);
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 3u);
  EXPECT_EQ(warm.lookup({0, 1}, 0).value(), "good");
  EXPECT_FALSE(warm.lookup({0, 2}, 0).has_value());
  EXPECT_FALSE(warm.lookup({0, 3}, 0).has_value());
  EXPECT_FALSE(warm.lookup({0, 0xff}, 0).has_value());
}

TEST_F(JournalTest, TempOrphansFromAKilledStoreAreIgnored) {
  std::string path;
  {
    TestJournal s(dir_str(), 0);
    s.store({0, 1}, 0, "published");
    path = s.entry_path({0, 1});
  }
  // A process killed between temp-write and rename.
  std::ofstream(path + ".tmp-12345") << "torn write";

  TestJournal warm(dir_str(), 0);
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 1u);  // the orphan, counted not fatal
  EXPECT_EQ(warm.lookup({0, 1}, 0).value(), "published");
}

TEST_F(JournalTest, UnusableDirectoryDegradesToMemoryOnly) {
  std::ofstream(dir_) << "a regular file, not a directory";

  TestJournal s(dir_str(), 0);
  EXPECT_TRUE(s.dir().empty());
  EXPECT_GE(s.stats().load_errors, 1u);
  s.store({0, 9}, 0, "ram only");
  EXPECT_EQ(s.lookup({0, 9}, 0).value(), "ram only");
  fs::remove(dir_);
}

TEST_F(JournalTest, LruEvictionCapsEntriesAndUnlinksFiles) {
  TestJournal s(dir_str(), 3);
  for (std::uint64_t k = 1; k <= 3; ++k) s.store({0, k}, 0, "entry");
  // A lookup refreshes recency: 1 outlives 2 and 3.
  EXPECT_TRUE(s.lookup({0, 1}, 0).has_value());
  s.store({0, 4}, 0, "entry");
  s.store({0, 5}, 0, "entry");
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.stats().evicted, 2u);
  EXPECT_TRUE(s.lookup({0, 1}, 0).has_value());
  EXPECT_FALSE(s.lookup({0, 2}, 0).has_value());
  EXPECT_FALSE(s.lookup({0, 3}, 0).has_value());
  s.flush();
  EXPECT_FALSE(fs::exists(s.entry_path({0, 2})));
  EXPECT_FALSE(fs::exists(s.entry_path({0, 3})));
  EXPECT_TRUE(fs::exists(s.entry_path({0, 5})));
}

TEST_F(JournalTest, WarmRestartRebuildsRecencyFromMtime) {
  {
    TestJournal s(dir_str(), 0);
    for (std::uint64_t k = 1; k <= 4; ++k) s.store({0, k}, 0, "entry");
    s.flush();
    // Make entry 1 the newest on disk and 3 the oldest, whatever the write
    // order was.
    const auto now = fs::last_write_time(s.entry_path({0, 2}));
    fs::last_write_time(s.entry_path({0, 1}), now + std::chrono::seconds(10));
    fs::last_write_time(s.entry_path({0, 3}), now - std::chrono::seconds(10));
  }
  // A capped warm restart loads everything, then evicts by mtime age.
  TestJournal warm(dir_str(), 2);
  EXPECT_EQ(warm.stats().loaded, 4u);
  EXPECT_EQ(warm.stats().evicted, 2u);
  EXPECT_TRUE(warm.lookup({0, 1}, 0).has_value());
  EXPECT_FALSE(warm.lookup({0, 3}, 0).has_value());
  EXPECT_FALSE(fs::exists(warm.entry_path({0, 3})));
}

TEST_F(JournalTest, MislabeledAndOldFormatEntriesAreColdMisses) {
  std::string relabeled;
  {
    TestJournal j(dir_str(), 0);
    j.store({1, 4}, 4, "kind one");
    relabeled = j.entry_path({1, 4});
  }
  // An entry moved under a name whose kind disagrees with its header, and
  // an entry in the result cache's format from before the journal store:
  // both are counted load errors, never a payload.
  fs::rename(relabeled, dir_ / Journal::entry_name({2, 4}, kSuffix));
  std::ofstream(dir_ / Journal::entry_name({0, 0xfe}, kSuffix))
      << "parmem-cache 1 3 0000000000000000\nabc";

  TestJournal warm(dir_str(), 0);
  EXPECT_EQ(warm.stats().loaded, 0u);
  EXPECT_EQ(warm.stats().load_errors, 2u);
  EXPECT_FALSE(warm.lookup({2, 4}, 4).has_value());
  EXPECT_FALSE(warm.lookup({0, 0xfe}, 0).has_value());
}

TEST(JournalNames, EncodeAndParseAreInverse) {
  EXPECT_EQ(Journal::entry_name({0, 0x1a2bULL}, ".res"),
            "0000000000001a2b.res");
  EXPECT_EQ(Journal::entry_name({2, 0xffULL}, ".atom"),
            "0200000000000000ff.atom");
  for (const Key k : {Key{0, 0}, Key{0, ~0ULL}, Key{1, 42}, Key{255, 7}}) {
    const auto back =
        Journal::parse_entry_name(Journal::entry_name(k, ".res"), ".res");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  for (const char* bad :
       {"0000000000001a2b.atom", "0000000000001a2b.res.tmp-77",
        "0000000000001A2B.res", "000000000001a2b.res", "000000000000001a2b.res",
        ".res", "not-a-key.res"}) {
    EXPECT_FALSE(Journal::parse_entry_name(bad, ".res").has_value()) << bad;
  }
}

// Stores publish their file on the writer thread, so a concurrent store can
// evict an entry while its file is being written. The file of an evicted
// entry must not land afterwards: once the stores are flushed, the
// directory holds exactly one file per resident entry and no temp debris.
TEST_F(JournalTest, ConcurrentStoresLeaveOneFilePerResidentEntry) {
  for (int round = 0; round < 20; ++round) {
    fs::remove_all(dir_);
    TestJournal j(dir_str(), /*max_entries=*/2);
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 8; ++t) {
      threads.emplace_back([&j, t] {
        for (std::uint64_t i = 0; i < 4; ++i) {
          j.store({0, t * 100 + i}, 0, "payload");
        }
      });
    }
    for (std::thread& th : threads) th.join();
    j.flush();
    std::size_t entry_files = 0;
    for (const std::string& name : list_directory(dir_str())) {
      ASSERT_TRUE(Journal::parse_entry_name(name, kSuffix).has_value())
          << name;
      ++entry_files;
    }
    ASSERT_EQ(j.size(), 2u);
    ASSERT_EQ(entry_files, j.size()) << "round " << round;
  }
}

std::size_t entry_files(const std::string& dir) {
  std::size_t n = 0;
  for (const std::string& name : list_directory(dir)) {
    if (Journal::parse_entry_name(name, kSuffix).has_value()) ++n;
  }
  return n;
}

// The destructor drains the writer's queue: a journal destroyed right after
// its stores leaves every entry for the next warm load.
TEST_F(JournalTest, DestructorDrainsTheQueue) {
  constexpr std::uint64_t kEntries = 64;
  {
    TestJournal j(dir_str(), 0);
    for (std::uint64_t k = 0; k < kEntries; ++k) j.store({0, k}, 0, "entry");
  }
  TestJournal warm(dir_str(), 0);
  EXPECT_EQ(warm.stats().loaded, kEntries);
  EXPECT_EQ(warm.stats().load_errors, 0u);
}

// store() updates memory before it returns: the next lookup hits whether or
// not the writer has published the file yet.
TEST_F(JournalTest, LookupHitsRightAfterStore) {
  TestJournal j(dir_str(), 0);
  for (std::uint64_t k = 0; k < 32; ++k) {
    j.store({0, k}, 0, "payload " + std::to_string(k));
    EXPECT_EQ(j.lookup({0, k}, 0).value(), "payload " + std::to_string(k));
  }
  j.flush();
  EXPECT_EQ(entry_files(dir_str()), 32u);
}

TEST_F(JournalTest, PendingReturnsToZeroAfterFlush) {
  TestJournal j(dir_str(), /*max_entries=*/4);
  for (std::uint64_t k = 0; k < 16; ++k) j.store({0, k}, 0, "entry");
  j.flush();
  EXPECT_EQ(j.stats().pending, 0u);
  EXPECT_EQ(entry_files(dir_str()), 4u);

  TestJournal memory("", 0);
  memory.store({0, 1}, 0, "ram");
  EXPECT_EQ(memory.stats().pending, 0u);
  memory.flush();  // nothing queued: returns at once
}

// erase() frees a key for a fresh payload (first writer wins otherwise) and
// unlinks the file of a key that stays erased; erasing an absent key is a
// no-op.
TEST_F(JournalTest, EraseFreesTheKeyAndUnlinksItsFile) {
  {
    TestJournal j(dir_str(), 0);
    j.store({0, 1}, 0, "stale");
    j.store({0, 2}, 0, "dropped");
    j.flush();
    j.erase({0, 1});
    j.store({0, 1}, 0, "fresh");
    j.erase({0, 2});
    j.erase({0, 3});
    EXPECT_EQ(j.lookup({0, 1}, 0).value(), "fresh");
    EXPECT_FALSE(j.lookup({0, 2}, 0).has_value());
    EXPECT_EQ(j.size(), 1u);
    j.flush();
    EXPECT_FALSE(fs::exists(j.entry_path({0, 2})));
    EXPECT_EQ(entry_files(dir_str()), 1u);
  }
  TestJournal warm(dir_str(), 0);
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.lookup({0, 1}, 0).value(), "fresh");
}

#if PARMEM_FAULT_INJECTION_ENABLED

// A fault on the writer costs the one entry it was publishing: the write is
// counted in store_errors, the entry stays served from memory, and the
// writer keeps publishing later stores.
TEST_F(JournalTest, WriterFaultCostsOneEntryAndLaterStoresPersist) {
  FaultInjector::instance().arm("test.journal_write",
                                FaultKind::kInternalError);
  Journal j(dir_str(), 0, kSuffix, "test.journal_write");
  j.store({0, 1}, 0, "lost on disk");
  j.flush();
  EXPECT_EQ(j.stats().store_errors, 1u);
  EXPECT_EQ(j.lookup({0, 1}, 0).value(), "lost on disk");
  EXPECT_FALSE(fs::exists(j.entry_path({0, 1})));

  j.store({0, 2}, 0, "persisted");
  j.flush();
  FaultInjector::instance().reset();
  EXPECT_EQ(j.stats().store_errors, 1u);
  EXPECT_TRUE(fs::exists(j.entry_path({0, 2})));
  EXPECT_EQ(entry_files(dir_str()), 1u);
}

#endif  // PARMEM_FAULT_INJECTION_ENABLED

}  // namespace
}  // namespace parmem::support
