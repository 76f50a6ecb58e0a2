// Named metric registry: monotonically increasing counters and last-value
// gauges, plus point-in-time Snapshots of the whole registry.
//
// Metrics are process-wide atomics. The PARMEM_COUNTER_ADD / PARMEM_GAUGE_SET
// macros cache the registry lookup in a function-local static, so a hot call
// site pays one mutex acquisition ever and a relaxed fetch_add per update.
// Unlike span/counter *events* (which need an active TraceSession), metric
// values always accumulate when telemetry is compiled in — that is what lets
// the pipeline attach a per-compile Snapshot delta to its result without any
// session running.
//
// Snapshot::since(before) forms the per-interval view: counters report
// after - before, gauges report their latest value. Note the registry is
// process-global: deltas taken around a single compile are exact when no
// other compile runs concurrently; compiles on other threads (the service's
// workers) interleave their counts into each other's deltas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/event.h"
#include "telemetry/sink.h"

namespace parmem::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge };

class Metric {
 public:
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// A point-in-time copy of every registered metric, sorted by name.
struct Snapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::int64_t value = 0;
  };
  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const Entry& e, std::string_view n) { return e.name < n; });
    return it != entries.end() && it->name == name ? &*it : nullptr;
  }
  bool has(std::string_view name) const { return find(name) != nullptr; }
  /// Value of `name`, or 0 when the metric never registered.
  std::int64_t value(std::string_view name) const {
    const Entry* e = find(name);
    return e != nullptr ? e->value : 0;
  }

  /// Interval view: counters become this - before (missing == 0), gauges
  /// keep this snapshot's (latest) value.
  Snapshot since(const Snapshot& before) const {
    Snapshot out;
    out.entries.reserve(entries.size());
    for (const Entry& e : entries) {
      Entry d = e;
      if (e.kind == MetricKind::kCounter) d.value -= before.value(e.name);
      out.entries.push_back(std::move(d));
    }
    return out;
  }
};

class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  Metric& counter(const char* name) {
    return metric(name, MetricKind::kCounter);
  }
  Metric& gauge(const char* name) { return metric(name, MetricKind::kGauge); }

  Snapshot snapshot() const {
    Snapshot s;
    std::lock_guard<std::mutex> lk(mu_);
    s.entries.reserve(metrics_.size());
    for (const auto& [name, slot] : metrics_) {
      s.entries.push_back({name, slot.kind, slot.metric->value()});
    }
    return s;  // std::map iterates sorted — Snapshot::find's invariant
  }

  /// Zeroes every metric (names stay registered). TraceSession::start()
  /// calls this so a session's final values read from zero.
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [name, slot] : metrics_) slot.metric->set(0);
  }

 private:
  struct Slot {
    MetricKind kind;
    std::unique_ptr<Metric> metric;
  };

  Metric& metric(std::string_view name, MetricKind kind) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      it = metrics_
               .emplace(std::string(name),
                        Slot{kind, std::make_unique<Metric>()})
               .first;
    }
    return *it->second.metric;
  }

  mutable std::mutex mu_;
  std::map<std::string, Slot, std::less<>> metrics_;
};

/// Counter update + (when a session is active) a sampled counter event so
/// traces render the metric as a time series.
inline void bump(Metric& m, const char* name, std::int64_t delta) {
  m.add(delta);
  if (tracing_active()) {
    local_sink().push(
        {EventKind::kCounter, name, now_ns(), 0, m.value()});
  }
}

inline void record(Metric& m, const char* name, std::int64_t v) {
  m.set(v);
  if (tracing_active()) {
    local_sink().push({EventKind::kCounter, name, now_ns(), 0, v});
  }
}

}  // namespace parmem::telemetry
