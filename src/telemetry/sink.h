// Per-thread lock-free event sinks.
//
// Each thread that emits telemetry owns a ThreadSink: a bounded
// single-producer/single-consumer ring. The owning thread is the only
// producer; the only consumer is TraceSession::take(), which runs after the
// producers have quiesced (or concurrently — the acquire/release head/tail
// protocol keeps it race-free either way). A full ring drops the event and
// counts the drop instead of blocking or reallocating: telemetry must never
// change the timing it is measuring.
//
// Sinks are registered in a process-wide SinkRegistry and live until process
// exit, so events emitted by a worker thread survive its join and are still
// drainable afterwards. The ring buffer itself is allocated lazily on first
// push — threads that register but never emit while a session is active
// cost ~100 bytes, which matters because the test suites create thousands
// of short-lived threads.
//
// This header is intentionally dependency-free and header-only (inline
// globals).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/event.h"

namespace parmem::telemetry {

class SinkRegistry;

class ThreadSink {
 public:
  /// Events per ring; power of two. 4096 events ≈ 160 KB, allocated only
  /// once the owning thread actually emits.
  static constexpr std::size_t kCapacity = std::size_t{1} << 12;

  /// Producer side; owning thread only.
  void push(const TraceEvent& e) {
    if (buf_ == nullptr) buf_ = std::make_unique<TraceEvent[]>(kCapacity);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h - tail_.load(std::memory_order_acquire) >= kCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf_[h & (kCapacity - 1)] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Consumer side: appends everything currently buffered to `out` and
  /// frees the slots.
  void drain(std::vector<TraceEvent>& out) {
    if (buf_ == nullptr) return;
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    std::uint64_t t = tail_.load(std::memory_order_relaxed);
    for (; t != h; ++t) out.push_back(buf_[t & (kCapacity - 1)]);
    tail_.store(t, std::memory_order_release);
  }

  /// Consumer side: discards everything currently buffered.
  void clear() {
    if (buf_ == nullptr) return;
    tail_.store(head_.load(std::memory_order_acquire),
                std::memory_order_release);
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Stable per-sink lane id (registration order); the exporter's `tid`.
  std::uint32_t lane() const { return lane_; }

 private:
  friend class SinkRegistry;
  std::unique_ptr<TraceEvent[]> buf_;  // lazily allocated by push()
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint32_t lane_ = 0;
  std::string name_;  // guarded by SinkRegistry::mu_
};

/// Owns every ThreadSink in the process. Registration and naming are
/// mutex-guarded (cold: once per thread); event traffic never touches the
/// registry.
class SinkRegistry {
 public:
  static SinkRegistry& instance() {
    static SinkRegistry r;
    return r;
  }

  ThreadSink& make_sink() {
    std::lock_guard<std::mutex> lk(mu_);
    sinks_.push_back(std::make_unique<ThreadSink>());
    ThreadSink& s = *sinks_.back();
    s.lane_ = static_cast<std::uint32_t>(sinks_.size() - 1);
    s.name_ = "thread-" + std::to_string(s.lane_);
    return s;
  }

  void set_name(ThreadSink& s, std::string name) {
    std::lock_guard<std::mutex> lk(mu_);
    s.name_ = std::move(name);
  }

  std::string name(const ThreadSink& s) const {
    std::lock_guard<std::mutex> lk(mu_);
    return s.name_;
  }

  /// Snapshot of the registered sinks (the sinks themselves are stable —
  /// never deallocated — so the pointers stay valid).
  std::vector<ThreadSink*> sinks() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<ThreadSink*> out;
    out.reserve(sinks_.size());
    for (const auto& s : sinks_) out.push_back(s.get());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
};

/// The calling thread's sink, created and registered on first use.
inline ThreadSink& local_sink() {
  thread_local ThreadSink* sink = &SinkRegistry::instance().make_sink();
  return *sink;
}

/// Session-active flag: spans and counter *events* are recorded only while
/// a TraceSession is running (counters themselves always accumulate when
/// compiled in).
inline std::atomic<bool>& session_active_flag() {
  static std::atomic<bool> active{false};
  return active;
}

inline bool tracing_active() {
  return kEnabled && session_active_flag().load(std::memory_order_relaxed);
}

}  // namespace parmem::telemetry
