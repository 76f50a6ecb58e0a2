// Cooperative resource budgets: wall-clock deadlines, step counts, and
// cancellation, threaded through the compilation pipeline.
//
// The duplication machinery is built on NP-hard kernels (Fig. 6
// backtracking, minimum hitting set); an unbounded run of either can hang a
// compile on adversarial input. A Budget bounds that work
// cooperatively: the long-running loops call charge() and bail out when it
// returns false, at which point the assigner degrades down its quality
// ladder (assigner.h: AssignTier) instead of dying.
//
// Contract used by every caller in the repo:
//
//  * a null Budget* means "unlimited" — call sites guard with
//    `if (budget && !budget->charge(n))`, so the unbudgeted path executes
//    exactly the seed instruction stream and stays byte-identical;
//  * exhaustion latches: once charge() returns false it returns false
//    forever, so every later poll observes the one trip;
//  * charge() is thread-safe (relaxed atomics) and cheap — the wall clock
//    and the cancel token are polled only every kPollPeriod steps;
//  * with only a step budget (no deadline) a compile degrades
//    deterministically: it runs on one thread, so the trip point depends
//    on the step stream alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace parmem::support {

/// One-way cancellation flag, shared between a controller and any number of
/// workers. Cancelling is idempotent and thread-safe.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Declarative budget limits. Zero means "no limit" for either field, so a
/// default-constructed spec is unlimited and costs nothing.
struct BudgetSpec {
  std::uint64_t deadline_ms = 0;  // wall-clock bound from Budget creation
  std::uint64_t max_steps = 0;    // cooperative step-count bound
  bool limited() const { return deadline_ms != 0 || max_steps != 0; }
};

class Budget {
 public:
  /// Unlimited budget (never trips unless force_exhaust() is called).
  Budget() = default;

  /// Budget with the given limits. `cancel` (optional) trips this budget
  /// as soon as the token is cancelled.
  explicit Budget(const BudgetSpec& spec, const CancelToken* cancel = nullptr)
      : max_steps_(spec.max_steps), cancel_(cancel) {
    if (spec.deadline_ms != 0) {
      has_deadline_ = true;
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(spec.deadline_ms);
    }
  }

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Charges `n` units of work. Returns true while the budget holds;
  /// false once exhausted (latched). The deadline / cancel token are
  /// polled when the step counter crosses a kPollPeriod boundary, so a
  /// deadline is honoured within ~kPollPeriod charge calls.
  bool charge(std::uint64_t n = 1) noexcept {
    if (exhausted_.load(std::memory_order_relaxed)) return false;
    const std::uint64_t before =
        steps_.fetch_add(n, std::memory_order_relaxed);
    if (max_steps_ != 0 && before + n > max_steps_) {
      force_exhaust();
      return false;
    }
    if ((before / kPollPeriod) != ((before + n) / kPollPeriod)) return poll();
    return true;
  }

  /// Polls the deadline and the cancel token immediately (also used at
  /// coarse boundaries: per atom, per duplication round). Returns ok().
  bool poll() noexcept {
    if (exhausted_.load(std::memory_order_relaxed)) return false;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      force_exhaust();
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      force_exhaust();
      return false;
    }
    return true;
  }

  /// True while the budget has not tripped. Does not poll the clock.
  bool ok() const noexcept {
    return !exhausted_.load(std::memory_order_relaxed);
  }
  bool exhausted() const noexcept { return !ok(); }

  /// Trips the budget from outside (external cancellation, fault
  /// injection). Latches; safe from any thread.
  void force_exhaust() noexcept {
    exhausted_.store(true, std::memory_order_relaxed);
  }

  std::uint64_t steps_used() const noexcept {
    return steps_.load(std::memory_order_relaxed);
  }

  /// True when any limit (or a cancel hook) exists; an unlimited budget
  /// never trips on its own, so callers skip the plumbing entirely.
  bool limited() const noexcept {
    return has_deadline_ || max_steps_ != 0 || cancel_ != nullptr;
  }

 private:
  static constexpr std::uint64_t kPollPeriod = 1024;

  std::atomic<std::uint64_t> steps_{0};
  std::atomic<bool> exhausted_{false};
  std::uint64_t max_steps_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  const CancelToken* cancel_ = nullptr;
};

}  // namespace parmem::support
