#include "support/thread_pool.h"

#include <exception>
#include <string>

#include "support/fault_injection.h"
#include "telemetry/telemetry.h"

namespace parmem::support {

namespace {

/// True while the current thread executes a pool task: nested parallel_for
/// calls then run inline instead of re-entering the queues (deadlock-free
/// two-level parallelism with one pool).
thread_local bool tl_in_task = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t worker_count) {
  queues_.resize(worker_count);
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_task(const Task& task) {
  const bool was_in_task = tl_in_task;
  tl_in_task = true;
  {
    // One span per pool task: in a trace, a worker's lane shows its task
    // stream (one compile each) with the pipeline spans nested inside.
    PARMEM_SPAN("pool.task");
    task();
  }
  tl_in_task = was_in_task;
}

void ThreadPool::enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  cv_.notify_one();
}

bool ThreadPool::try_take(std::size_t preferred, Task& out) {
  auto& own = queues_[preferred];
  if (!own.empty()) {
    out = std::move(own.back());
    own.pop_back();
    return true;
  }
  for (std::size_t d = 1; d < queues_.size(); ++d) {
    auto& victim = queues_[(preferred + d) % queues_.size()];
    if (!victim.empty()) {
      out = std::move(victim.front());
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  if constexpr (telemetry::kEnabled) {
    telemetry::set_thread_name("worker-" + std::to_string(id));
  }
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Task task;
    if (try_take(id, task)) {
      lk.unlock();
      run_task(task);
      task = nullptr;  // release captures before re-locking
      lk.lock();
      continue;
    }
    if (stop_) return;  // queues drained first: pending tasks always run
    cv_.wait(lk);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              const CancelToken* cancel) {
  if (n == 0) return;
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };
  if (workers_.empty() || tl_in_task) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancelled()) break;
      body(i);
    }
    return;
  }

  // Join state shared with the n index tasks. Exceptions land in their
  // index's slot so the rethrow below is deterministic; `done` under the
  // join mutex also publishes every slot write to the waiting caller.
  struct Join {
    std::mutex m;
    std::condition_variable done_cv;
    std::size_t done = 0;
  };
  auto join = std::make_shared<Join>();
  std::vector<std::exception_ptr> errors(n);

  for (std::size_t i = 0; i < n; ++i) {
    enqueue([&body, &errors, join, cancelled, i] {
      try {
        PARMEM_FAULT_POINT("pool.task", nullptr);
        // A cancelled task is skipped but still joins, so the caller's
        // frame (body, errors) stays alive until every task is accounted.
        if (!cancelled()) body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(join->m);
      ++join->done;
      join->done_cv.notify_all();
    });
  }

  // Help while waiting: drain whatever is queued (our tasks or a concurrent
  // caller's — either is useful work), then sleep until the last in-flight
  // body finishes.
  for (;;) {
    Task task;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!try_take(0, task)) break;
    }
    run_task(task);
  }
  {
    std::unique_lock<std::mutex> lk(join->m);
    join->done_cv.wait(lk, [&] { return join->done == n; });
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace parmem::support
