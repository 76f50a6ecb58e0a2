// Allocation accounting for the access-stream parser. This file replaces
// the global operator new/delete for the whole test_ir binary with a
// malloc/free pair that, on the current thread and only while a probe is
// active, sums the bytes requested. The parser walks its input as views,
// so the bytes it allocates depend on the tokens it keeps, never on how
// many blank or comment lines surround them.
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "ir/stream_io.h"

namespace {

thread_local bool g_counting = false;
thread_local std::size_t g_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) g_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace parmem::ir {
namespace {

/// Bytes operator new hands out while parsing `text` (the result included).
std::size_t bytes_to_parse(const std::string& text) {
  g_bytes = 0;
  g_counting = true;
  const AccessStream s = parse_stream(text);
  g_counting = false;
  EXPECT_EQ(s.tuples.size(), 2u);
  return g_bytes;
}

TEST(StreamIo, BlankAndCommentLinesAllocateNothing) {
  const std::string body = "tuple 0 1 2\nmutable 1\ntuple @3 2 3\n";
  const std::size_t bare = bytes_to_parse("stream 4\n" + body);
  EXPECT_GT(bare, 0u);

  std::string padded = "stream 4\n";
  for (int i = 0; i < 20000; ++i) padded += (i % 4 == 0) ? "# note\n" : "\n";
  padded += body;
  padded += std::string(20000, '\n');
  EXPECT_EQ(bytes_to_parse(padded), bare);
}

}  // namespace
}  // namespace parmem::ir
