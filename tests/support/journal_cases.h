// The journal store's restart round trip (support/journal.h), written once
// for every key shape over the store: tests/support/journal_test.cpp runs
// it against support::Journal, and the result-cache and atom-cache suites
// through their key shapes, which checks that each shape maps its keys onto
// the store's entry files. The store's other behaviours are tested once,
// against the bare store, in journal_test.
//
// A Shape adapter provides:
//   using Store = ...;  // constructible as Store(dir, max_entries); has
//                       // flush(), which waits out write-behind stores
//   static void put(Store&, std::uint64_t key, std::string_view payload);
//   static std::optional<std::string> get(Store&, std::uint64_t key);
//   static std::string path(const Store&, std::uint64_t key);
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

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

}  // namespace parmem::support::journal_cases
