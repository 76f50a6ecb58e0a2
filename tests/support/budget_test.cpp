// Budget/CancelToken contract (see budget.h): a default budget is
// unlimited and never trips on its own; limits latch once exhausted; the
// cancel token trips the budget at the next poll; and with only a step
// budget the trip point is a pure function of the charge stream (the
// deterministic-degradation guarantee the robustness tests build on).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/budget.h"

namespace parmem::support {
namespace {

TEST(Budget, DefaultIsUnlimitedAndNeverTrips) {
  Budget b;
  EXPECT_FALSE(b.limited());
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(b.charge(1'000));
  EXPECT_TRUE(b.poll());
  EXPECT_TRUE(b.ok());
}

TEST(Budget, StepLimitTripsAndLatches) {
  BudgetSpec spec;
  spec.max_steps = 100;
  Budget b(spec);
  EXPECT_TRUE(b.limited());
  EXPECT_TRUE(b.charge(60));
  EXPECT_EQ(b.steps_used(), 60u);
  EXPECT_FALSE(b.charge(41));  // 60 + 41 > 100
  EXPECT_TRUE(b.exhausted());
  // Latched: even a free charge keeps failing.
  EXPECT_FALSE(b.charge(0));
  EXPECT_FALSE(b.charge(1));
  EXPECT_FALSE(b.poll());
}

TEST(Budget, StepTripPointIsDeterministic) {
  // Same spec + same charge stream => the trip happens on the same call.
  const auto trip_index = [] {
    BudgetSpec spec;
    spec.max_steps = 1'000;
    Budget b(spec);
    int i = 0;
    while (b.charge(7)) ++i;
    return i;
  };
  const int first = trip_index();
  EXPECT_EQ(trip_index(), first);
  EXPECT_EQ(trip_index(), first);
}

TEST(Budget, DeadlineTripsOncePassed) {
  BudgetSpec spec;
  spec.deadline_ms = 1;
  Budget b(spec);
  EXPECT_TRUE(b.limited());
  // Spin on poll() instead of sleeping a fixed interval: poll() flips
  // exactly when the deadline passes, so this cannot race the scheduler
  // however slowly (TSan) or coarsely the host clock ticks.
  while (b.poll()) std::this_thread::yield();
  EXPECT_FALSE(b.poll());  // latched
  EXPECT_TRUE(b.exhausted());
}

TEST(Budget, CancelTokenTripsAtNextPoll) {
  CancelToken token;
  Budget b(BudgetSpec{}, &token);
  EXPECT_TRUE(b.limited());  // a cancel hook alone makes it worth polling
  EXPECT_TRUE(b.poll());
  token.cancel();
  token.cancel();  // idempotent
  EXPECT_FALSE(b.poll());
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.charge());
}

TEST(Budget, ForceExhaustLatchesFromOutside) {
  BudgetSpec spec;
  spec.max_steps = 1'000'000;
  Budget b(spec);
  EXPECT_TRUE(b.charge());
  b.force_exhaust();
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.charge());
  EXPECT_FALSE(b.poll());
}

TEST(BudgetSpec, LimitedMatchesFields) {
  BudgetSpec none;
  EXPECT_FALSE(none.limited());
  BudgetSpec steps;
  steps.max_steps = 1;
  EXPECT_TRUE(steps.limited());
  BudgetSpec wall;
  wall.deadline_ms = 1;
  EXPECT_TRUE(wall.limited());
}

TEST(Budget, ConcurrentChargesObserveOneTrip) {
  // Many threads hammer one budget; the trip must latch exactly once and
  // every thread must observe it (no thread spins past exhaustion).
  BudgetSpec spec;
  spec.max_steps = 100'000;
  Budget b(spec);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> charged{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (b.charge(17)) charged.fetch_add(17, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(b.exhausted());
  // Successful charges never exceed the limit by more than the last
  // in-flight increments (one per thread).
  EXPECT_LE(charged.load(), 100'000u + 4 * 17);
}

}  // namespace
}  // namespace parmem::support
