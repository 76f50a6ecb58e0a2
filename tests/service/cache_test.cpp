// Result-cache key shape (cache.h): a restart round trip through the
// shape's entry files (the journal store's own behaviours run in
// tests/support/journal_test.cpp), the 16-hex `.res` entry names the
// router's shard migration routes by, replacement of an entry from another
// output version, and the atomic-write primitive underneath.
#include "service/cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "../support/journal_cases.h"
#include "support/file_io.h"

namespace parmem::service {
namespace {

namespace cases = support::journal_cases;

struct ResultShape {
  using Store = ResultCache;
  static void put(Store& s, std::uint64_t key, std::string_view payload) {
    s.store(key, payload);
  }
  static std::optional<std::string> get(Store& s, std::uint64_t key) {
    return s.lookup(key);
  }
  static std::string path(const Store& s, std::uint64_t key) {
    return s.entry_path(key);
  }
};

using CacheTest = cases::TempDirTest;

TEST_F(CacheTest, JournalSurvivesARestart) {
  cases::survives_a_restart<ResultShape>(dir_);
}

TEST_F(CacheTest, EntryPathUsesSixteenHexDigits) {
  ResultCache cache(dir_str());
  const std::string path = cache.entry_path(0x1a2bULL);
  EXPECT_NE(path.find("0000000000001a2b.res"), std::string::npos);
}

// An entry journaled under another output version (0 was the first)
// misses, is replaced by the next store, and the replacement survives a
// restart under the same file name.
TEST_F(CacheTest, EntryFromAnotherOutputVersionIsReplaced) {
  {
    support::Journal old(dir_str(), 0, ResultCache::kSuffix, nullptr);
    old.store({0, 7}, /*check=*/0, "old bytes");
  }
  {
    ResultCache cache(dir_str());
    EXPECT_EQ(cache.stats().loaded, 1u);
    EXPECT_FALSE(cache.lookup(7).has_value());
    EXPECT_EQ(cache.stats().check_mismatches, 1u);
    cache.store(7, "new bytes");
    EXPECT_EQ(cache.lookup(7).value(), "new bytes");
  }
  ResultCache warm(dir_str());
  EXPECT_EQ(warm.stats().loaded, 1u);
  EXPECT_EQ(warm.lookup(7).value(), "new bytes");
}

TEST_F(CacheTest, LookupRefreshesRecency) {
  ResultCache cache("", /*max_entries=*/2);
  cache.store(1, "one");
  cache.store(2, "two");
  // Touch 1 so 2 becomes the LRU victim when 3 arrives.
  EXPECT_TRUE(cache.lookup(1).has_value());
  cache.store(3, "three");
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
}

TEST_F(CacheTest, AtomicWriteHelperPublishesAllOrNothing) {
  // The underlying primitive: write_file_atomic leaves either the complete
  // new content or nothing — never a partial file under the final name.
  support::ensure_directory(dir_str());
  const std::string path = (dir_ / "artifact.bin").string();
  EXPECT_TRUE(support::write_file_atomic(path, "v1"));
  EXPECT_EQ(support::read_file(path).value(), "v1");
  EXPECT_TRUE(support::write_file_atomic(path, "version-two"));
  EXPECT_EQ(support::read_file(path).value(), "version-two");
  // No temp debris left behind after successful publishes.
  std::size_t files = 0;
  for (const std::string& name : support::list_directory(dir_str())) {
    EXPECT_EQ(name.find(".tmp-"), std::string::npos) << name;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

}  // namespace
}  // namespace parmem::service
