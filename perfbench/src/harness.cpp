#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= kTailBeyond) {
    t.value = samples.back();
    t.percentile = 100;
    return t;
  }
  const std::size_t rank = n - kTailBeyond;  // 1-based nearest rank
  t.value = samples[rank - 1];
  t.beyond = kTailBeyond;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

WindowedTail windowed_tail(const std::vector<double>& samples) {
  WindowedTail out;
  const std::size_t n = samples.size();
  out.windows = std::clamp<std::size_t>(n / kTailWindowSamples, 1, kMaxTailWindows);
  std::vector<double> values, percentiles;
  out.tail.samples = n;
  for (std::size_t w = 0; w < out.windows; ++w) {
    const std::size_t lo = n * w / out.windows;
    const std::size_t hi = n * (w + 1) / out.windows;
    const Tail t = tail({samples.begin() + static_cast<std::ptrdiff_t>(lo),
                         samples.begin() + static_cast<std::ptrdiff_t>(hi)});
    values.push_back(t.value);
    percentiles.push_back(t.percentile);
    out.tail.beyond = t.beyond;
    out.tail.samples = std::min(out.tail.samples, t.samples);
  }
  out.tail.value = median(values);
  out.tail.percentile = median(percentiles);
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- report --------------------------------------------------------------

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

void Report::set_p50_tail(const std::string& name,
                          const std::vector<double>& ms) {
  const WindowedTail w = windowed_tail(ms);
  set(name + ".p50", median(ms), "ms");
  set(name + ".tail", w.tail.value, "ms");
  detail(name + ".tail",
         "{\"percentile\": " + number(w.tail.percentile) +
             ", \"beyond\": " + std::to_string(w.tail.beyond) +
             ", \"samples_per_window\": " + std::to_string(w.tail.samples) +
             ", \"windows\": " + std::to_string(w.windows) +
             ", \"samples\": " + std::to_string(ms.size()) + "}");
}

void Report::detail(const std::string& key, const std::string& json_value) {
  details[key] = json_value;
}

void Report::detail(const std::string& key, double value) {
  details[key] = number(value);
}

void Outcome::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

std::string result_json(const Outcome& outcome, const Report& report) {
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

std::string details_json(const Report& report) {
  std::string out = "{\"details\": {";
  bool first = true;
  for (const auto& [key, value] : report.details) {
    if (!first) out += ", ";
    first = false;
    out += quoted(key) + ": " + value;
  }
  return out + "}}";
}

// ---- open loop -----------------------------------------------------------

OpenLoop::OpenLoop(std::vector<double> offsets_ms)
    : offsets_ms_(std::move(offsets_ms)),
      sent_(offsets_ms_.size()),
      done_(offsets_ms_.size()),
      completed_(offsets_ms_.size(), false),
      remaining_(offsets_ms_.size()) {}

namespace {

Clock::time_point due_time(Clock::time_point start, double offset_ms) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(offset_ms));
}

}  // namespace

void OpenLoop::run(const std::function<void(std::size_t)>& send) {
  start_ = Clock::now();
  for (std::size_t i = 0; i < offsets_ms_.size(); ++i) {
    std::this_thread::sleep_until(due_time(start_, offsets_ms_[i]));
    sent_[i] = Clock::now();
    send(i);
  }
}

void OpenLoop::complete(std::size_t i, Clock::time_point at) {
  std::lock_guard<std::mutex> lock(mu_);
  if (completed_[i]) return;
  completed_[i] = true;
  done_[i] = at;
  if (--remaining_ == 0) done_cv_.notify_all();
}

bool OpenLoop::wait_all(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  return done_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                           [this] { return remaining_ == 0; });
}

std::vector<double> OpenLoop::lag_ms() const {
  std::vector<double> out;
  out.reserve(offsets_ms_.size());
  for (std::size_t i = 0; i < offsets_ms_.size(); ++i) {
    out.push_back(
        std::max(0.0, ms_between(due_time(start_, offsets_ms_[i]), sent_[i])));
  }
  return out;
}

double OpenLoop::latency_ms(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!completed_[i]) return -1;
  return ms_between(due_time(start_, offsets_ms_[i]), done_[i]);
}

Clock::time_point OpenLoop::last_completion() const {
  std::lock_guard<std::mutex> lock(mu_);
  Clock::time_point last = start_;
  for (std::size_t i = 0; i < done_.size(); ++i) {
    if (completed_[i]) last = std::max(last, done_[i]);
  }
  return last;
}

std::vector<double> poisson_offsets_ms(std::size_t count, double rate_per_s,
                                       std::uint64_t seed) {
  // SplitMix64: the harness stays independent of the library under test.
  std::uint64_t state = seed ^ 0x6f70656e6c6f6f70ULL;  // "openloop"
  const auto uniform = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  };
  std::vector<double> offsets;
  offsets.reserve(count);
  double sum = 0;
  for (std::size_t i = 0; i <= count; ++i) {
    sum += -std::log(1.0 - uniform());
    if (i < count) offsets.push_back(sum);
  }
  const double span_ms = 1000.0 * static_cast<double>(count) / rate_per_s;
  for (double& o : offsets) o = o / sum * span_ms;
  return offsets;
}

// ---- CPU rotation --------------------------------------------------------

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  original_.assign(reinterpret_cast<unsigned char*>(&set),
                   reinterpret_cast<unsigned char*>(&set) + sizeof set);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (original_.size() != sizeof(cpu_set_t)) return;
  cpu_set_t set;
  std::memcpy(&set, original_.data(), sizeof set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---- provenance ----------------------------------------------------------

bool fault_injection_build() { return PARMEM_FAULT_INJECTION_ENABLED != 0; }

std::string provenance_json(std::uint64_t seed) {
  return "{\"CMAKE_BUILD_TYPE\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"PARMEM_TELEMETRY\": " + quoted(PERFBENCH_TELEMETRY) +
         ", \"PARMEM_FAULT_INJECTION\": " + quoted(PERFBENCH_FAULT_INJECTION) +
         ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

}  // namespace perfbench
