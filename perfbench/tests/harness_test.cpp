// Tests for the benchmark's own code: the tail-percentile rule, the
// geomean, open-loop due-time accounting and seeded input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "ir/stream_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

TEST(Tail, LeavesTenSamplesBeyond) {
  const Tail t = tail(range(1, 100));
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.percentile, 90);
}

TEST(Tail, IgnoresInputOrder) {
  std::vector<double> v = range(1, 1000);
  std::reverse(v.begin(), v.end());
  const Tail t = tail(v);
  EXPECT_EQ(t.value, 990);
  EXPECT_DOUBLE_EQ(t.percentile, 99);
}

TEST(Tail, SmallestSetWithTenBeyond) {
  const Tail t = tail(range(1, 11));
  EXPECT_EQ(t.value, 1);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, TooFewSamplesReportTheMaximum) {
  const Tail t = tail({3, 1, 2});
  EXPECT_EQ(t.value, 3);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(WindowedTail, MedianOfPerWindowTails) {
  // 300 samples in time order -> 3 windows of 100; each window's tail is
  // its 11th largest. A stall confined to the middle window moves only
  // that window's tail, so the median of the three does not move.
  std::vector<double> v = range(1, 100);
  std::vector<double> stalled = range(1, 100);
  for (double& x : stalled) x += 1000;
  const std::vector<double> calm = range(1, 100);
  v.insert(v.end(), stalled.begin(), stalled.end());
  v.insert(v.end(), calm.begin(), calm.end());
  const WindowedTail w = windowed_tail(v);
  EXPECT_EQ(w.windows, 3u);
  EXPECT_EQ(w.tail.value, 90);
  EXPECT_EQ(w.tail.beyond, 10u);
  EXPECT_EQ(w.tail.samples, 100u);
  EXPECT_DOUBLE_EQ(w.tail.percentile, 90);
}

TEST(WindowedTail, FewSamplesAreOneWindow) {
  const WindowedTail w = windowed_tail(range(1, 60));
  EXPECT_EQ(w.windows, 1u);
  EXPECT_EQ(w.tail.value, tail(range(1, 60)).value);
}

TEST(WindowedTail, WindowCountIsCapped) {
  const WindowedTail w = windowed_tail(range(1, 100000));
  EXPECT_EQ(w.windows, kMaxTailWindows);
  EXPECT_EQ(w.tail.beyond, kTailBeyond);
}

TEST(Stats, MedianOfRoundsAveragesTheMiddleInputs) {
  // Two rounds of four inputs costing 1, 2, 10, 20: each round's median is
  // (2 + 10) / 2, not whichever of the two middle inputs noise favours.
  EXPECT_EQ(median_of_rounds({1, 2, 10, 20, 20, 10, 2, 1}, 4), 6);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({5, 1, 3}), 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-9);
  EXPECT_NEAR(geomean({2, 8}), 4, 1e-9);
  EXPECT_NEAR(geomean({5}), 5, 1e-12);
  EXPECT_EQ(geomean({}), 0);
}

TEST(Stats, GeomeanWeighsEveryInputTheSame) {
  // Halving one small input moves the geomean as much as halving a large
  // one: a win on the small programs is not hidden by the big one.
  const double base = geomean({1, 1, 1000});
  EXPECT_NEAR(geomean({0.5, 1, 1000}), geomean({1, 1, 500}), 1e-9);
  EXPECT_LT(geomean({0.5, 1, 1000}), base);
}

TEST(OpenLoop, StalledHandlerMakesLaterRequestsLate) {
  // 20 requests due 1 ms apart; the handler of the first stalls the
  // generator for 60 ms, so every later request is sent late.
  std::vector<double> offsets;
  for (int i = 0; i < 20; ++i) offsets.push_back(i);
  OpenLoop loop(offsets);
  loop.run([&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    loop.complete(i);
  });
  ASSERT_TRUE(loop.wait_all(1));
  const std::vector<double> lag = loop.lag_ms();
  ASSERT_EQ(lag.size(), 20u);
  EXPECT_LT(lag[0], 60);
  for (std::size_t i = 1; i < lag.size(); ++i) {
    EXPECT_GE(lag[i], 60.0 - static_cast<double>(i) - 1) << i;
    // Latency runs from the due time, so it includes the lateness.
    EXPECT_GE(loop.latency_ms(i), lag[i]) << i;
  }
  EXPECT_GE(tail(lag).value, 40);  // generator.lag_ms.tail shows it
  EXPECT_GE(loop.latency_ms(0), 60);
}

TEST(OpenLoop, CompletionsFromOtherThreads) {
  OpenLoop loop({0, 0.5, 1});
  std::vector<std::thread> responders;
  loop.run([&](std::size_t i) {
    responders.emplace_back([&loop, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      loop.complete(i);
    });
  });
  ASSERT_TRUE(loop.wait_all(5));
  for (std::thread& t : responders) t.join();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_GE(loop.latency_ms(i), 4.0);
}

TEST(OpenLoop, MissingResponsesAreNotCounted) {
  OpenLoop loop({0, 0});
  loop.run([&](std::size_t i) {
    if (i == 0) loop.complete(i);
  });
  EXPECT_FALSE(loop.wait_all(0.01));
  EXPECT_GE(loop.latency_ms(0), 0);
  EXPECT_LT(loop.latency_ms(1), 0);
}

TEST(Arrivals, SeededPoissonScheduleSpansTheRun) {
  const auto a = poisson_offsets_ms(400, 40, 7);
  ASSERT_EQ(a.size(), 400u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 10000);
  EXPECT_GT(a.back(), 9000);
  EXPECT_EQ(a, poisson_offsets_ms(400, 40, 7));
  EXPECT_NE(a, poisson_offsets_ms(400, 40, 8));
}

TEST(Inputs, SameSeedSameBytes) {
  // Pinned: a change here means every workload's inputs changed, which
  // makes results incomparable with earlier runs.
  EXPECT_EQ(inputs_fingerprint(1, 50), 0x50670a849b229221ULL);
  EXPECT_EQ(inputs_fingerprint(1, 50), inputs_fingerprint(1, 50));
  EXPECT_NE(inputs_fingerprint(1, 50), inputs_fingerprint(2, 50));
}

TEST(Inputs, LargeStreamsRenameValuesOnly) {
  // The seed renames the values of fixed streams: different bytes, the same
  // tuples up to the renaming, so every seed compiles the same graphs.
  const auto a = large_streams(1);
  const auto b = large_streams(2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NE(a[i].text, b[i].text);
    const auto sa = parmem::ir::parse_stream(a[i].text, "a", 1u << 20);
    const auto sb = parmem::ir::parse_stream(b[i].text, "b", 1u << 20);
    EXPECT_EQ(sa.value_count, sb.value_count);
    ASSERT_EQ(sa.tuples.size(), sb.tuples.size());
    for (std::size_t t = 0; t < sa.tuples.size(); ++t) {
      EXPECT_EQ(sa.tuples[t].operands.size(), sb.tuples[t].operands.size());
    }
  }
}

TEST(Inputs, ServiceMixShares) {
  const auto reqs = service_requests(100, 3);
  ASSERT_EQ(reqs.size(), 100u);
  std::size_t hot = 0, edit = 0, fresh = 0;
  for (const auto& r : reqs) {
    hot += r.cls == RequestClass::kHot;
    edit += r.cls == RequestClass::kEdit;
    fresh += r.cls == RequestClass::kFresh;
  }
  EXPECT_EQ(hot, 40u);
  EXPECT_EQ(edit, 35u);
  EXPECT_EQ(fresh, 25u);
}

TEST(Inputs, PaperCellsMatchTable1) {
  const auto cells = paper_cells();
  ASSERT_EQ(cells.size(), 18u);
  EXPECT_EQ(cells.front().name, "TAYLOR1/STOR1");
  EXPECT_EQ(cells.back().name, "COLOR/STOR3");
  for (const auto& c : cells) {
    EXPECT_EQ(c.opts.assign.module_count, 8u);
    EXPECT_EQ(c.opts.parallel.threads, 0u);
  }
  auto order = shuffled_order(18, 5, 0);
  EXPECT_EQ(order, shuffled_order(18, 5, 0));
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace perfbench
