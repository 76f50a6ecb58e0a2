// The pool's contract (see thread_pool.h): zero workers = inline serial
// execution in index order; any worker count covers every index exactly
// once; the smallest index's exception propagates; nested parallel_for
// runs inline instead of deadlocking; and the whole thing is clean under
// ThreadSanitizer (the CI TSan job runs this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace parmem::support {
namespace {

TEST(ThreadPool, SerialFallbackRunsInlineInIndexOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(64, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 3u, 7u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << workers
                                   << " workers";
    }
  }
}

TEST(ThreadPool, ResultsAreIdenticalAcrossWorkerCounts) {
  // Each body writes only its own slot, so per the determinism contract the
  // merged result must not depend on the worker count.
  const auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> slot(200);
    pool.parallel_for(slot.size(), [&](std::size_t i) {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL * (i + 1);
      for (int r = 0; r < 100; ++r) h = h * 6364136223846793005ULL + i;
      slot[i] = h;
    });
    return slot;
  };
  const auto serial = run(0);
  EXPECT_EQ(run(1), serial);
  EXPECT_EQ(run(4), serial);
}

TEST(ThreadPool, SmallestIndexExceptionWins) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(32, [&](std::size_t i) {
      if (i == 7 || i == 19 || i == 3) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ThreadPool, ExceptionDoesNotAbortOtherBodies) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::logic_error("x");
                                   completed.fetch_add(1);
                                 }),
               std::logic_error);
  EXPECT_EQ(completed.load(), 49);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(16 * 16);
  pool.parallel_for(16, [&](std::size_t outer) {
    // From inside a task this must run inline on the same thread.
    const auto self = std::this_thread::get_id();
    pool.parallel_for(16, [&](std::size_t inner) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

// ThreadSanitizer-friendly stress: many tiny tasks racing for the queues
// across repeated waves. Any lost task, double execution, or
// unsynchronized slot access trips the asserts (and TSan in the sanitizer
// CI job).
TEST(ThreadPool, StressManySmallTasks) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int wave = 0; wave < 50; ++wave) {
    const std::size_t n = 97 + static_cast<std::size_t>(wave);
    for (std::size_t i = 0; i < n; ++i) expected += i;
    pool.parallel_for(n, [&](std::size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, PreCancelledTokenSkipsEveryBody) {
  for (const std::size_t workers : {0u, 1u, 4u}) {
    CancelToken token;
    token.cancel();
    ThreadPool pool(workers);
    std::atomic<int> ran{0};
    pool.parallel_for(128, [&](std::size_t) { ran.fetch_add(1); }, &token);
    EXPECT_EQ(ran.load(), 0) << workers << " workers";
  }
}

TEST(ThreadPool, CancelMidFlightSkipsRemainingBodiesAndStillJoins) {
  // The first body to run cancels the token: bodies not yet started must be
  // skipped, in-flight bodies finish, and the call joins everything —
  // `ran` must be final when parallel_for returns.
  for (const std::size_t workers : {0u, 2u}) {
    CancelToken token;
    std::atomic<int> ran{0};
    int at_return = 0;
    {
      ThreadPool pool(workers);
      pool.parallel_for(256,
                        [&](std::size_t) {
                          token.cancel();
                          ran.fetch_add(1);
                        },
                        &token);
      at_return = ran.load();
      EXPECT_GE(at_return, 1) << workers << " workers";
      // At most one body per participating thread can already be in flight
      // when the first cancel lands.
      EXPECT_LE(at_return, static_cast<int>(workers) + 1)
          << workers << " workers";
    }  // pool destructor joins every worker — nothing can run past here
    EXPECT_EQ(ran.load(), at_return) << "a body ran after the join";
  }
}

TEST(ThreadPool, NullCancelTokenRunsEverything) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); }, nullptr);
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
}  // namespace parmem::support
