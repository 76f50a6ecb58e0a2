// The benchmark's own machinery: sample statistics, the metric report,
// open-loop due-time accounting and build provenance. Nothing here calls
// into parmem; the workloads (workloads.h) do.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double ms_since(Clock::time_point from);

// ---- statistics ----------------------------------------------------------

/// Median (mean of the middle two for even sizes); 0 for an empty set.
double median(std::vector<double> samples);

/// The highest percentile that still has at least kTailBeyond samples
/// beyond it: the (kTailBeyond + 1)-th largest sample. `percentile` is its
/// nearest-rank percentile, 100 * (n - kTailBeyond) / n. Sets of at most
/// kTailBeyond samples report their maximum, with `beyond` = 0.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> samples);

/// The tail of a run: the samples, in the order they were taken, are cut
/// into consecutive windows of at least kTailWindowSamples (at most
/// kMaxTailWindows windows; one window when there are fewer samples), the
/// tail() rule is applied to each window, and the median of the window
/// tails is returned. A single stall then moves one window, not the
/// result; `percentile` is the median of the windows' percentiles and
/// `samples` the smallest window's size.
inline constexpr std::size_t kTailWindowSamples = 100;
inline constexpr std::size_t kMaxTailWindows = 16;
struct WindowedTail {
  Tail tail;
  std::size_t windows = 0;
};
WindowedTail windowed_tail(const std::vector<double>& samples);

/// Geometric mean of strictly positive values; 0 for an empty set.
double geomean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---- the report ----------------------------------------------------------

/// What one run prints: the metric map of the final JSON line plus
/// free-form details (tail percentiles and sample counts, provenance) that
/// go on the line before it.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> details;  // key -> raw JSON value

  void set(const std::string& name, double value, const std::string& unit);
  /// Sets `<name>.p50` (median of all samples) and `<name>.tail` from
  /// samples in the order they were taken. The tail is windowed_tail();
  /// its percentile, window count and samples per window go to details.
  void set_p50_tail(const std::string& name, const std::vector<double>& ms);
  void detail(const std::string& key, const std::string& json_value);
  void detail(const std::string& key, double value);
};

/// Run-level outcome: the fields of the final JSON line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reasons for the first few failures (stderr only).
  std::vector<std::string> failures;
  void fail(std::string why);
  bool correct() const { return failed == 0; }
};

/// The final line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(const Outcome& outcome, const Report& report);
/// The details line printed before it.
std::string details_json(const Report& report);

// ---- open-loop accounting ------------------------------------------------

/// Drives an open-loop schedule from one thread. Request i is due at
/// start + offsets_ms[i]; run() sleeps until each due time and calls
/// send(i), which must arrange for complete(i) to be called once, from any
/// thread, when the response arrives. A send that blocks makes every later
/// send late: that lateness shows in lag_ms(), and because latency is
/// measured from the *due* time it shows in latency_ms() too.
class OpenLoop {
 public:
  explicit OpenLoop(std::vector<double> offsets_ms);

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void run(const std::function<void(std::size_t)>& send);
  /// Marks request i answered at `at` (default: now). Later calls for the
  /// same request are ignored.
  void complete(std::size_t i, Clock::time_point at = Clock::now());
  /// Waits until every request completed; false on timeout.
  bool wait_all(double timeout_s);

  Clock::time_point start() const { return start_; }
  /// Per request: actual send time minus due time (ms, >= 0).
  std::vector<double> lag_ms() const;
  /// Completion time minus due time of request i (ms), or a negative value
  /// if it never completed.
  double latency_ms(std::size_t i) const;
  /// Completion time of the last request to finish.
  Clock::time_point last_completion() const;

 private:
  std::vector<double> offsets_ms_;
  Clock::time_point start_{};
  std::vector<Clock::time_point> sent_;
  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<Clock::time_point> done_;  // guarded by mu_
  std::vector<bool> completed_;          // guarded by mu_
  std::size_t remaining_ = 0;            // guarded by mu_
};

/// Seeded arrival offsets: a Poisson process of the given rate conditioned
/// on exactly `count` arrivals in [0, count / rate) seconds (sorted uniform
/// order statistics, generated as normalised exponential gaps), so every
/// seed offers the same load over the same span.
std::vector<double> poisson_offsets_ms(std::size_t count, double rate_per_s,
                                       std::uint64_t seed);

// ---- CPU rotation --------------------------------------------------------

/// Spreads a single-threaded closed loop over every CPU the process may
/// run on: each next() pins the calling thread to the following CPU of the
/// original affinity set, and destruction restores that set. On a shared
/// host each CPU's speed drifts independently over seconds; a thread the
/// scheduler leaves on one CPU measures that CPU's luck for the whole run,
/// a rotating one measures the average of all of them.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
  std::vector<unsigned char> original_;  // the saved cpu_set_t bytes
};

// ---- provenance ----------------------------------------------------------

/// Build and host facts every result records: CMAKE_BUILD_TYPE, the
/// telemetry and fault-injection switches, the compiler, nproc and the
/// seed, as a JSON object.
std::string provenance_json(std::uint64_t seed);
/// True when the libraries were compiled with fault injection, which keeps
/// a live Budget on every compile and so measures a different program.
bool fault_injection_build();

}  // namespace perfbench
