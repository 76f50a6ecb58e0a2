// Work-stealing thread pool behind analysis::compile_batch's job fan-out.
//
// Design goals, in priority order: determinism of results, simplicity under
// ThreadSanitizer, then throughput. Tasks are coarse (one whole compile), so
// the pool uses per-worker deques guarded by a single lock — LIFO pop of the
// own deque for locality, FIFO steal from the others — rather than
// lock-free Chase-Lev deques; contention is negligible at this granularity.
//
// Determinism contract: a parallel_for body must be a pure function of its
// index that writes only its own output slot. Then the merged result is
// identical for every worker count, including zero — the serial fallback,
// which runs every body inline in index order. A parallel_for issued from
// inside a pool task runs inline on that task's thread, so a nested call
// can never deadlock waiting for workers that are all busy with its
// parents.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/budget.h"

namespace parmem::support {

class ThreadPool {
 public:
  /// Spawns `worker_count` worker threads. Zero workers is the serial
  /// fallback: every body runs inline on the calling thread.
  explicit ThreadPool(std::size_t worker_count);

  /// Joins the workers (parallel_for has already joined its tasks).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Runs body(0) .. body(n-1), blocking until all have finished. The
  /// calling thread participates in the work, so total concurrency is
  /// worker_count() + 1. If bodies throw, the exception of the smallest
  /// index is rethrown once every body has finished. With zero workers, or
  /// when called from inside another pool task, bodies run inline in index
  /// order.
  ///
  /// `cancel` (optional) is polled before each body: once the token is
  /// cancelled, bodies that have not started yet are skipped. Bodies
  /// already in flight run to completion and the call still joins every
  /// scheduled task before returning — cancellation never leaves a detached
  /// worker holding a reference to the caller's frame.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    const CancelToken* cancel = nullptr);

 private:
  using Task = std::function<void()>;

  void enqueue(Task task);
  /// Pops the back of deque `preferred`, else steals the front of another.
  /// Caller must hold mu_. Returns false if every deque is empty.
  bool try_take(std::size_t preferred, Task& out);
  void worker_loop(std::size_t id);
  /// Executes a task with the thread marked as in-task (nested parallel_for
  /// detection).
  static void run_task(const Task& task);

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Task>> queues_;
  std::size_t next_queue_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace parmem::support
