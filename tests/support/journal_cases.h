// The journal store's behaviours (support/journal.h), written once.
// tests/support/journal_test.cpp runs them against support::Journal; the
// result-cache and atom-cache suites run the same cases through their key
// shapes, which checks that each shape maps its keys onto the store.
//
// A Shape adapter provides:
//   using Store = ...;  // constructible as Store(dir, max_entries); has
//                       // flush(), which waits out write-behind stores
//   static void put(Store&, std::uint64_t key, std::string_view payload);
//   static std::optional<std::string> get(Store&, std::uint64_t key);
//   static std::string path(const Store&, std::uint64_t key);
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "support/file_io.h"

namespace parmem::support::journal_cases {

namespace fs = std::filesystem;

/// A scratch directory per test, named after it and removed around it.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("parmem_journal_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->test_suite_name()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_str() const { return dir_.string(); }
  fs::path dir_;
};

template <class Shape>
void memory_only_round_trip() {
  typename Shape::Store s("", 0);
  EXPECT_FALSE(Shape::get(s, 7).has_value());
  Shape::put(s, 7, "payload");
  EXPECT_EQ(Shape::get(s, 7).value(), "payload");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(Shape::path(s, 7).empty());
  const auto stats = s.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

template <class Shape>
void first_writer_wins() {
  typename Shape::Store s("", 0);
  Shape::put(s, 5, "original");
  Shape::put(s, 5, "imposter");
  // Byte-identical replay: a key is only ever bound to one payload.
  EXPECT_EQ(Shape::get(s, 5).value(), "original");
  EXPECT_EQ(s.stats().stores, 1u);
}

template <class Shape>
void survives_a_restart(const fs::path& dir) {
  const std::string payload = "status ok\ndiag 0\n\nbody 3\n" +
                              std::string(300, '\x5a') + '\0' + "tail";
  {
    typename Shape::Store s(dir.string(), 0);
    Shape::put(s, 0xabcdefULL, payload);
    Shape::put(s, 0x123456ULL, "second entry");
    s.flush();
    EXPECT_TRUE(fs::exists(Shape::path(s, 0xabcdefULL)));
  }
  // A fresh store over the same directory serves the exact bytes.
  typename Shape::Store warm(dir.string(), 0);
  EXPECT_EQ(warm.stats().loaded, 2u);
  EXPECT_EQ(warm.stats().load_errors, 0u);
  EXPECT_EQ(Shape::get(warm, 0xabcdefULL).value(), payload);
  EXPECT_EQ(Shape::get(warm, 0x123456ULL).value(), "second entry");
}

template <class Shape>
void damaged_entries_are_skipped(const fs::path& dir) {
  std::string truncated, flipped, garbage;
  {
    typename Shape::Store s(dir.string(), 0);
    Shape::put(s, 1, "good");
    Shape::put(s, 2, "will-be-truncated");
    Shape::put(s, 3, "will-be-flipped");
    truncated = Shape::path(s, 2);
    flipped = Shape::path(s, 3);
    garbage = Shape::path(s, 0xff);
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

  typename Shape::Store warm(dir.string(), 0);
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 3u);
  EXPECT_EQ(Shape::get(warm, 1).value(), "good");
  EXPECT_FALSE(Shape::get(warm, 2).has_value());
  EXPECT_FALSE(Shape::get(warm, 3).has_value());
  EXPECT_FALSE(Shape::get(warm, 0xff).has_value());
}

template <class Shape>
void temp_orphans_are_ignored(const fs::path& dir) {
  std::string path;
  {
    typename Shape::Store s(dir.string(), 0);
    Shape::put(s, 1, "published");
    path = Shape::path(s, 1);
  }
  // A process killed between temp-write and rename.
  std::ofstream(path + ".tmp-12345") << "torn write";

  typename Shape::Store warm(dir.string(), 0);
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.stats().load_errors, 1u);  // the orphan, counted not fatal
  EXPECT_EQ(Shape::get(warm, 1).value(), "published");
}

template <class Shape>
void unusable_directory_degrades_to_memory_only(const fs::path& dir) {
  std::ofstream(dir) << "a regular file, not a directory";

  typename Shape::Store s(dir.string(), 0);
  EXPECT_TRUE(s.dir().empty());
  EXPECT_GE(s.stats().load_errors, 1u);
  Shape::put(s, 9, "ram only");
  EXPECT_EQ(Shape::get(s, 9).value(), "ram only");
  fs::remove(dir);
}

template <class Shape>
void lru_eviction_caps_entries_and_unlinks_files(const fs::path& dir) {
  typename Shape::Store s(dir.string(), 3);
  for (std::uint64_t k = 1; k <= 3; ++k) Shape::put(s, k, "entry");
  // A lookup refreshes recency: 1 outlives 2 and 3.
  EXPECT_TRUE(Shape::get(s, 1).has_value());
  Shape::put(s, 4, "entry");
  Shape::put(s, 5, "entry");
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.stats().evicted, 2u);
  EXPECT_TRUE(Shape::get(s, 1).has_value());
  EXPECT_FALSE(Shape::get(s, 2).has_value());
  EXPECT_FALSE(Shape::get(s, 3).has_value());
  s.flush();
  EXPECT_FALSE(fs::exists(Shape::path(s, 2)));
  EXPECT_FALSE(fs::exists(Shape::path(s, 3)));
  EXPECT_TRUE(fs::exists(Shape::path(s, 5)));
}

template <class Shape>
void warm_restart_rebuilds_recency_from_mtime(const fs::path& dir) {
  {
    typename Shape::Store s(dir.string(), 0);
    for (std::uint64_t k = 1; k <= 4; ++k) Shape::put(s, k, "entry");
    s.flush();
    // Make entry 1 the newest on disk and 3 the oldest, whatever the write
    // order was.
    const auto now = fs::last_write_time(Shape::path(s, 2));
    fs::last_write_time(Shape::path(s, 1), now + std::chrono::seconds(10));
    fs::last_write_time(Shape::path(s, 3), now - std::chrono::seconds(10));
  }
  // A capped warm restart loads everything, then evicts by mtime age.
  typename Shape::Store warm(dir.string(), 2);
  EXPECT_EQ(warm.stats().loaded, 4u);
  EXPECT_EQ(warm.stats().evicted, 2u);
  EXPECT_TRUE(Shape::get(warm, 1).has_value());
  EXPECT_FALSE(Shape::get(warm, 3).has_value());
  EXPECT_FALSE(fs::exists(Shape::path(warm, 3)));
}

}  // namespace parmem::support::journal_cases
