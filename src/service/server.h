// The compile service: admission control, worker pool, retry/backoff,
// watchdog cancellation, and the crash-safe result cache, behind a single
// submit() call. `serve()` adapts a framed ByteStream (frame.h) onto a
// service instance, and `serve_connections()` runs that frame loop over
// each connection a listening socket accepts — together, the whole of
// parmemd.
//
// Lifecycle of a request (DESIGN.md §12):
//
//   submit --> k or fu out of bounds (check_machine) --> respond kUserError
//          --> cache hit? ----------------------------> respond (cache_hit)
//          --> draining / queue above high watermark --> respond kOverloaded
//          --> enqueue (accepted)
//   worker --> deadline already gone? ----------------> respond kCancelled
//          --> attempt compile under a per-attempt Budget that inherits the
//              request deadline and is wired to a CancelToken the watchdog
//              can fire
//            --> full-effort success -----------------> respond kOk (cached)
//            --> degraded, user-requested budget -----> respond kDegraded
//            --> degraded, deadline-driven, headroom -> backoff + retry
//            --> degraded, no headroom ---------------> respond kDegraded
//            --> UserError ---------------------------> respond kUserError
//            --> transient fault, attempts left ------> backoff + retry
//            --> transient fault, attempts exhausted -> parking attempt
//                (max_steps=1: completes on the cheapest ladder tier)
//              --> parking attempt also fails --------> respond kInternalError
//
// Every admitted request reaches exactly one terminal respond; the
// callback/future fires exactly once. Admission sheds with hysteresis:
// above `queue_capacity` new requests are rejected until the queue drains
// to half of it. The watchdog polls in-flight attempts and fires their
// CancelToken at deadline + grace, which trips the attempt's Budget at its
// next poll — workers are cancelled cooperatively, never killed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/atom_cache.h"
#include "service/cache.h"
#include "service/request.h"
#include "service/retry.h"
#include "support/budget.h"

namespace parmem::service {

class ByteStream;

struct ServiceOptions {
  std::size_t workers = 2;
  /// High watermark: a submit that finds this many queued requests is shed
  /// with kOverloaded until the queue drains back to half of it.
  std::size_t queue_capacity = 64;
  /// Deadline applied to requests that carry none (0 = unlimited).
  std::uint64_t default_deadline_ms = 0;
  /// Grace past a request's deadline before the watchdog, which scans
  /// every 2 ms, fires its CancelToken.
  std::uint64_t watchdog_grace_ms = 50;
  RetryPolicy retry;
  /// Result-cache journal directory ("" = memory-only).
  std::string cache_dir;
  /// LRU cap on result-cache entries (0 = unbounded). Evicted entries'
  /// journal files are unlinked.
  std::size_t cache_max_entries = 0;
  /// Admission-time cap on a stream request's declared value count.
  std::uint64_t max_stream_values = std::uint64_t{1} << 20;
  /// Incremental recompilation: keep the decomposition memo store
  /// (cache::AtomCache, DESIGN.md §13). A compile whose conflict graph has
  /// the structure of one seen before reuses its clique-separator atoms and
  /// skips MCS-M. Output bytes are identical to from-scratch compiles, so
  /// the result cache's byte-identity contract is unaffected.
  bool incremental = false;
  /// Atom-cache journal directory ("" = memory-only; only meaningful with
  /// `incremental`).
  std::string atom_cache_dir;
  /// LRU cap on atom-cache entries (0 = unbounded).
  std::size_t atom_cache_max_entries = 0;
};

class CompileService {
 public:
  /// Monotonic service counters (always live, unlike telemetry, so tests
  /// and the soak harness can assert on them in any build configuration).
  struct Counters {
    std::uint64_t accepted = 0;     // admitted into the queue
    std::uint64_t shed = 0;         // rejected kOverloaded at admission
    std::uint64_t cache_hits = 0;   // served without queueing
    std::uint64_t retried = 0;      // re-enqueued with backoff
    std::uint64_t escalated = 0;    // parked on the degraded final attempt
    std::uint64_t cancelled = 0;    // terminal kCancelled responses
    std::uint64_t watchdog_fired = 0;
    std::uint64_t completed = 0;    // terminal responses of any status
  };

  using Callback = std::function<void(const CompileResponse&)>;

  explicit CompileService(ServiceOptions opts = {});
  ~CompileService();  // drains

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Asynchronous submit. `done` fires exactly once with the terminal
  /// response — possibly synchronously (cache hit, shed, drain) on the
  /// calling thread, otherwise on a worker thread.
  void submit(CompileRequest req, Callback done);

  /// Future-returning convenience over the callback form.
  std::future<CompileResponse> submit(CompileRequest req);

  /// Synchronous convenience: submit and wait for the terminal response.
  CompileResponse handle(CompileRequest req);

  /// Stops admission, completes every queued and in-flight request (all
  /// terminal responses still fire), joins workers and watchdog, and
  /// flushes both journals. Idempotent; also run by the destructor.
  void drain();

  std::size_t queue_depth() const;
  std::size_t inflight() const;
  Counters counters() const;
  ResultCache& cache() { return cache_; }
  /// The atom-granular memo store, or null when ServiceOptions::incremental
  /// is off.
  cache::AtomCache* atom_cache() { return atom_cache_.get(); }
  const ServiceOptions& options() const { return opts_; }

 private:
  struct Job {
    CompileRequest req;
    std::uint64_t key = 0;  // cache key, also the backoff jitter seed
    Callback done;
    std::uint32_t attempts = 0;  // completed compile attempts
    bool parked = false;         // on the final degraded parking attempt
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point not_before{};
  };

  /// One in-flight compile attempt, registered with the watchdog.
  struct Inflight {
    support::CancelToken token;
    bool has_cancel_at = false;
    std::chrono::steady_clock::time_point cancel_at{};
    bool fired = false;
  };

  struct AttemptResult {
    enum Kind {
      kSuccess,            // full-effort artifact in resp
      kDegradedRequested,  // degraded by the request's own max_steps
      kDegradedDeadline,   // degraded by the inherited deadline / watchdog
      kUser,               // UserError: permanent
      kTransient,          // bad_alloc / internal fault / injected timeout
    } kind = kTransient;
    CompileResponse resp;  // populated for the first three kinds
    std::string diag;      // failure diagnostic for the last two
  };

  void worker_loop();
  void watchdog_loop();
  std::unique_ptr<Job> pop_ready_job();
  void process(std::unique_ptr<Job> job);
  AttemptResult run_attempt(Job& job, Inflight& inf);
  void requeue(std::unique_ptr<Job> job,
               std::chrono::steady_clock::time_point not_before);
  void finish(std::unique_ptr<Job> job, CompileResponse resp);
  std::uint64_t remaining_deadline_ms(const Job& job) const;
  void register_inflight(Inflight* inf);
  void unregister_inflight(Inflight* inf);
  void publish_queue_depth_locked();

  ServiceOptions opts_;
  ResultCache cache_;
  std::unique_ptr<cache::AtomCache> atom_cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Job>> queue_;
  bool draining_ = false;
  bool shedding_ = false;

  mutable std::mutex inflight_mu_;
  std::condition_variable watchdog_cv_;
  std::vector<Inflight*> inflight_;
  bool stop_watchdog_ = false;

  std::atomic<std::size_t> inflight_count_{0};
  mutable std::mutex counters_mu_;
  Counters counters_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  bool joined_ = false;
};

/// Reads framed requests from `stream` until EOF, submitting each to
/// `service` and writing framed responses as they complete (responses may
/// interleave out of request order; match them by id). An unparseable
/// request payload gets a kUserError response under id 0; a malformed
/// *frame* gets one kUserError response and ends the loop — the stream can
/// no longer be trusted to be in sync. Returns the number of responses
/// written. Thread-safe against the service's worker callbacks; waits for
/// every submitted request to reach its terminal response before returning.
std::uint64_t serve(ByteStream& stream, CompileService& service);

/// The asynchronous submit shape shared by CompileService and the router:
/// the callback fires exactly once with the terminal response, possibly on
/// another thread.
using SubmitFn =
    std::function<void(CompileRequest, CompileService::Callback)>;

/// The frame loop of serve() over an arbitrary submit function — parmemd
/// points it at a local CompileService, parmem-router at a worker fleet;
/// the wire behavior (id-0 error responses, malformed-frame shutdown,
/// drain-before-return) is identical by construction.
std::uint64_t serve_frames(ByteStream& stream, const SubmitFn& submit);

/// `service.submit` as a SubmitFn, for the frame loops.
SubmitFn submit_to(CompileService& service);

/// The connection serve_connections is serving, published so another
/// thread can cut it mid-request (a test's cable pull). shutdown() never
/// closes the fd, so it cannot race the loop's close into a reused fd.
class LiveConnection {
 public:
  /// Shuts the served connection down both ways, if there is one; the
  /// loop goes on accepting.
  void shutdown();
  /// The loop's side: publishes `fd` as the served connection (-1: none).
  void set(int fd);

 private:
  std::mutex mu_;
  int fd_ = -1;
};

/// The daemons' one accept loop. Serves the connections accepted on
/// `listen_fd` one at a time, each through serve_frames over `submit`,
/// until `stop_fd` becomes readable; returns the responses written.
/// `stop_fd` is also each connection's interrupt fd, so a stop ends the
/// served connection's reads and its in-flight requests drain as at EOF.
/// One client at a time suffices: the router holds one connection per
/// worker, and a reconnect must find the same warm service. TCP_NODELAY is
/// set on every connection (a no-op on a unix socket). An exception out of
/// one connection's serve drops that connection and the loop keeps
/// accepting, because the daemon outlives its connections: one client's
/// failure must not take down the service the next one expects. A
/// non-transient accept error propagates. A non-null `live` publishes the
/// served connection.
std::uint64_t serve_connections(int listen_fd, int stop_fd,
                                const SubmitFn& submit,
                                LiveConnection* live = nullptr);

/// Builds a minimal terminal response (no artifact) for error paths.
CompileResponse error_response(std::uint64_t id, ResponseStatus status,
                               std::string diagnostic);

}  // namespace parmem::service
