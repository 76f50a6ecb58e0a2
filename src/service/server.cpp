#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <exception>
#include <new>
#include <utility>

#include "analysis/pipeline.h"
#include "assign/verify.h"
#include "ir/stream_io.h"
#include "service/frame.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "support/net.h"
#include "telemetry/telemetry.h"

namespace parmem::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Textual compiled artifact: the final LIW program plus the placement
/// (assign_stream's `value <id>: M<i> ...` lines). Deliberately free of
/// request ids, timings, or anything else non-deterministic — the body is
/// part of the cacheable response and must be a pure function of the
/// compile inputs.
std::string render_placement(const ir::AccessStream& stream,
                             const assign::AssignResult& result) {
  std::string out;
  for (ir::ValueId v = 0; v < stream.value_count; ++v) {
    if (result.placement[v] == 0) continue;
    out += "value " + std::to_string(v) + ":";
    for (const std::uint32_t m : assign::modules_of(result.placement[v])) {
      out += " M" + std::to_string(m);
    }
    if (result.removed[v]) out += "  (duplicated)";
    out += '\n';
  }
  return out;
}

std::string render_mc_artifact(const analysis::Compiled& c) {
  std::string out = c.liw.to_string();
  out += "# placement\n";
  out += render_placement(c.stream, c.assignment);
  return out;
}

std::string render_stream_artifact(const ir::AccessStream& stream,
                                   const assign::AssignResult& result,
                                   const assign::VerifyReport& report) {
  std::string out = "# placement\n";
  out += render_placement(stream, result);
  out += "# values " + std::to_string(result.stats.values_used) + " copies " +
         std::to_string(result.stats.total_copies) + " residual " +
         std::to_string(report.conflicting_tuples.size()) + '\n';
  return out;
}

}  // namespace

CompileResponse error_response(std::uint64_t id, ResponseStatus status,
                               std::string diagnostic) {
  CompileResponse resp;
  resp.id = id;
  resp.status = status;
  resp.diagnostic = std::move(diagnostic);
  return resp;
}

CompileService::CompileService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_dir, opts_.cache_max_entries) {
  if (opts_.incremental) {
    atom_cache_ = std::make_unique<cache::AtomCache>(
        opts_.atom_cache_dir, opts_.atom_cache_max_entries);
  }
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

CompileService::~CompileService() { drain(); }

void CompileService::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ && joined_) return;
    draining_ = true;
  }
  cv_.notify_all();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (joined_) return;
    joined_ = true;
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    stop_watchdog_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Stores are write-behind: once drain returns, every answered entry is
  // on disk for the shard migrator, a warm restart and the printed counts.
  cache_.flush();
  if (atom_cache_) atom_cache_->flush();
}

void CompileService::publish_queue_depth_locked() {
  PARMEM_GAUGE_SET("service.queue_depth",
                   static_cast<std::int64_t>(queue_.size()));
}

void CompileService::submit(CompileRequest req, Callback done) {
  try {
    PARMEM_FAULT_POINT("service.admit", nullptr);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lk(counters_mu_);
      ++counters_.completed;
    }
    done(error_response(req.id, ResponseStatus::kInternalError, e.what()));
    return;
  }

  try {
    check_machine(req);
  } catch (const support::UserError& e) {
    {
      std::lock_guard<std::mutex> lk(counters_mu_);
      ++counters_.completed;
    }
    done(error_response(req.id, ResponseStatus::kUserError, e.what()));
    return;
  }

  const std::uint64_t key = cache_key(req);
  try {
    PARMEM_FAULT_POINT("service.cache_load", nullptr);
    if (const auto hit = cache_.lookup(key)) {
      {
        std::lock_guard<std::mutex> lk(counters_mu_);
        ++counters_.cache_hits;
        ++counters_.completed;
      }
      PARMEM_COUNTER_ADD("service.cache_hit", 1);
      done(parse_response(response_from_cache(req.id, *hit)));
      return;
    }
  } catch (const std::exception&) {
    // An injected cache fault must never lose the request — fall through
    // and compile as if it were a miss.
  }

  auto job = std::make_unique<Job>();
  job->req = std::move(req);
  job->key = key;
  job->done = std::move(done);
  std::uint64_t deadline_ms = job->req.deadline_ms != 0
                                  ? job->req.deadline_ms
                                  : opts_.default_deadline_ms;
  if (deadline_ms != 0) {
    job->has_deadline = true;
    job->deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  job->not_before = Clock::now();

  {
    std::unique_lock<std::mutex> lk(mu_);
    const bool reject_drain = draining_;
    if (!reject_drain) {
      if (shedding_ && queue_.size() <= opts_.queue_capacity / 2) {
        shedding_ = false;
      }
      if (!shedding_ && queue_.size() >= opts_.queue_capacity) {
        shedding_ = true;
      }
    }
    if (reject_drain || shedding_) {
      lk.unlock();
      {
        std::lock_guard<std::mutex> clk(counters_mu_);
        ++counters_.shed;
        ++counters_.completed;
      }
      PARMEM_COUNTER_ADD("service.shed", 1);
      job->done(error_response(
          job->req.id, ResponseStatus::kOverloaded,
          reject_drain ? "service is draining"
                       : "queue above the high watermark"));
      return;
    }
    queue_.push_back(std::move(job));
    publish_queue_depth_locked();
  }
  {
    std::lock_guard<std::mutex> lk(counters_mu_);
    ++counters_.accepted;
  }
  PARMEM_COUNTER_ADD("service.accepted", 1);
  cv_.notify_one();
}

std::future<CompileResponse> CompileService::submit(CompileRequest req) {
  auto promise = std::make_shared<std::promise<CompileResponse>>();
  std::future<CompileResponse> fut = promise->get_future();
  submit(std::move(req),
         [promise](const CompileResponse& resp) { promise->set_value(resp); });
  return fut;
}

CompileResponse CompileService::handle(CompileRequest req) {
  return submit(std::move(req)).get();
}

std::size_t CompileService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::size_t CompileService::inflight() const {
  return inflight_count_.load(std::memory_order_relaxed);
}

CompileService::Counters CompileService::counters() const {
  std::lock_guard<std::mutex> lk(counters_mu_);
  return counters_;
}

std::unique_ptr<CompileService::Job> CompileService::pop_ready_job() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const auto now = Clock::now();
    auto earliest = Clock::time_point::max();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->not_before <= now) {
        std::unique_ptr<Job> job = std::move(*it);
        queue_.erase(it);
        publish_queue_depth_locked();
        if (shedding_ && queue_.size() <= opts_.queue_capacity / 2) {
          shedding_ = false;
        }
        return job;
      }
      earliest = std::min(earliest, (*it)->not_before);
    }
    if (queue_.empty()) {
      if (draining_) return nullptr;
      cv_.wait(lk);
    } else {
      // Only backoff-delayed jobs remain; sleep until the first is ready
      // (drain waits too — every admitted request still gets its terminal
      // response).
      cv_.wait_until(lk, earliest);
    }
  }
}

void CompileService::worker_loop() {
  while (auto job = pop_ready_job()) {
    process(std::move(job));
  }
}

void CompileService::register_inflight(Inflight* inf) {
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    inflight_.push_back(inf);
  }
  [[maybe_unused]] const auto n =
      inflight_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  PARMEM_GAUGE_SET("service.inflight", static_cast<std::int64_t>(n));
}

void CompileService::unregister_inflight(Inflight* inf) {
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
      if (*it == inf) {
        inflight_.erase(it);
        break;
      }
    }
    if (inf->fired) {
      std::lock_guard<std::mutex> clk(counters_mu_);
      ++counters_.watchdog_fired;
    }
  }
  [[maybe_unused]] const auto n =
      inflight_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
  PARMEM_GAUGE_SET("service.inflight", static_cast<std::int64_t>(n));
}

void CompileService::watchdog_loop() {
  std::unique_lock<std::mutex> lk(inflight_mu_);
  while (!stop_watchdog_) {
    const auto now = Clock::now();
    for (Inflight* inf : inflight_) {
      if (inf->has_cancel_at && !inf->fired && now >= inf->cancel_at) {
        inf->fired = true;
        inf->token.cancel();
        PARMEM_COUNTER_ADD("service.watchdog_fired", 1);
      }
    }
    watchdog_cv_.wait_for(lk, std::chrono::milliseconds(2));
  }
}

std::uint64_t CompileService::remaining_deadline_ms(const Job& job) const {
  if (!job.has_deadline) return ~std::uint64_t{0};
  const auto now = Clock::now();
  if (now >= job.deadline) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(job.deadline -
                                                            now)
          .count());
}

CompileService::AttemptResult CompileService::run_attempt(Job& job,
                                                          Inflight& inf) {
  AttemptResult out;
  try {
    // Fault probe for the worker itself. An injected kTimeout trips this
    // probe budget — treated exactly like a watchdog cancellation of an
    // attempt that produced nothing.
    support::Budget probe;
    PARMEM_FAULT_POINT("service.worker", &probe);
    if (!probe.ok()) {
      out.kind = AttemptResult::kTransient;
      out.diag = "injected timeout at service.worker";
      return out;
    }

    // The attempt's budget inherits what is left of the request deadline;
    // the parking attempt instead runs under max_steps=1, which trips
    // immediately and completes on the cheapest ladder tier.
    support::BudgetSpec spec;
    if (job.parked) {
      spec.max_steps = 1;
    } else {
      spec.max_steps = job.req.max_steps;
      if (job.has_deadline) {
        const std::uint64_t rem = remaining_deadline_ms(job);
        spec.deadline_ms = rem == 0 ? 1 : rem;
      }
    }

    CompileResponse resp;
    resp.id = job.req.id;
    bool degraded = false;
    if (job.req.kind == RequestKind::kMc) {
      analysis::PipelineOptions popts;
      popts.assign.module_count = job.req.module_count;
      popts.sched.module_count = job.req.module_count;
      popts.sched.fu_count = job.req.fu_count;
      popts.assign.strategy = job.req.strategy;
      popts.assign.method = job.req.method;
      popts.rename = job.req.rename;
      popts.budget = spec;
      // A fixed source name keeps diagnostics (and so the cacheable bytes)
      // independent of the request id.
      popts.source_name = "<service>";
      // The shared atom cache serves the decomposition memo. Replay is
      // byte-identical, so cached responses are unaffected.
      popts.atom_memo = atom_cache_.get();
      const analysis::Compiled c =
          analysis::compile_mc(job.req.body, popts, &inf.token);
      resp.tier = assign::tier_name(c.assignment.tier);
      resp.body = render_mc_artifact(c);
      resp.fingerprint = analysis::compiled_fingerprint(c);
      degraded = c.degraded();
    } else {
      const ir::AccessStream stream = ir::parse_stream(
          job.req.body, "<service>", opts_.max_stream_values);
      assign::AssignOptions aopts;
      aopts.module_count = job.req.module_count;
      aopts.strategy = job.req.strategy;
      aopts.method = job.req.method;
      aopts.memo_store = atom_cache_.get();
      support::Budget budget(spec, &inf.token);
      if (budget.limited()) aopts.budget = &budget;
      const assign::AssignResult result = assign::assign_modules(stream, aopts);
      const assign::VerifyReport report =
          assign::verify_assignment(stream, result);
      resp.tier = assign::tier_name(result.tier);
      resp.body = render_stream_artifact(stream, result, report);
      resp.fingerprint = fnv1a64(resp.body);
      degraded = result.tier > assign::AssignTier::kHeuristic;
    }

    resp.status = degraded ? ResponseStatus::kDegraded : ResponseStatus::kOk;
    out.resp = std::move(resp);
    if (!degraded) {
      out.kind = AttemptResult::kSuccess;
    } else if (job.parked || job.req.max_steps != 0) {
      out.kind = AttemptResult::kDegradedRequested;
    } else {
      out.kind = AttemptResult::kDegradedDeadline;
    }
    return out;
  } catch (const support::UserError& e) {
    out.kind = AttemptResult::kUser;
    out.diag = e.what();
  } catch (const std::bad_alloc&) {
    out.kind = AttemptResult::kTransient;
    out.diag = "allocation failure during compile";
  } catch (const std::exception& e) {
    out.kind = AttemptResult::kTransient;
    out.diag = e.what();
  }
  return out;
}

void CompileService::requeue(std::unique_ptr<Job> job,
                             Clock::time_point not_before) {
  job->not_before = not_before;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Retries bypass admission control: the request was already accepted
    // and must reach a terminal response even under shedding.
    queue_.push_back(std::move(job));
    publish_queue_depth_locked();
  }
  cv_.notify_one();
}

void CompileService::finish(std::unique_ptr<Job> job, CompileResponse resp) {
  const bool cacheable =
      resp.status == ResponseStatus::kOk ||
      (resp.status == ResponseStatus::kDegraded && job->req.max_steps != 0 &&
       !job->parked);
  if (cacheable) {
    try {
      PARMEM_FAULT_POINT("service.cache_store", nullptr);
      cache_.store(job->key, cacheable_part(resp));
    } catch (const std::exception&) {
      // An injected store fault only costs the cache entry, never the
      // response.
    }
  }
  {
    std::lock_guard<std::mutex> lk(counters_mu_);
    ++counters_.completed;
    if (resp.status == ResponseStatus::kCancelled) {
      ++counters_.cancelled;
      PARMEM_COUNTER_ADD("service.cancelled", 1);
    }
  }
  job->done(resp);
}

void CompileService::process(std::unique_ptr<Job> job) {
  if (job->has_deadline && !job->parked && Clock::now() >= job->deadline &&
      job->attempts == 0) {
    CompileResponse resp =
        error_response(job->req.id, ResponseStatus::kCancelled,
                       "deadline expired before the compile started");
    finish(std::move(job), std::move(resp));
    return;
  }

  Inflight inf;
  if (job->has_deadline && !job->parked) {
    inf.has_cancel_at = true;
    inf.cancel_at =
        job->deadline + std::chrono::milliseconds(opts_.watchdog_grace_ms);
  }
  register_inflight(&inf);
  AttemptResult result = run_attempt(*job, inf);
  unregister_inflight(&inf);
  ++job->attempts;

  switch (result.kind) {
    case AttemptResult::kSuccess:
    case AttemptResult::kDegradedRequested:
      finish(std::move(job), std::move(result.resp));
      return;
    case AttemptResult::kUser: {
      CompileResponse resp = error_response(
          job->req.id, ResponseStatus::kUserError, std::move(result.diag));
      finish(std::move(job), std::move(resp));
      return;
    }
    case AttemptResult::kDegradedDeadline: {
      // "Budget exhaustion at a tier with headroom": retry only when the
      // deadline would survive the backoff with slack to spare.
      if (should_retry(opts_.retry, FailureClass::kTransient,
                       job->attempts) &&
          degraded_has_headroom(opts_.retry, remaining_deadline_ms(*job),
                                job->attempts, job->key)) {
        const std::uint64_t backoff =
            retry_backoff_ms(opts_.retry, job->attempts, job->key);
        {
          std::lock_guard<std::mutex> lk(counters_mu_);
          ++counters_.retried;
        }
        PARMEM_COUNTER_ADD("service.retried", 1);
        requeue(std::move(job),
                Clock::now() + std::chrono::milliseconds(backoff));
        return;
      }
      finish(std::move(job), std::move(result.resp));
      return;
    }
    case AttemptResult::kTransient: {
      if (job->parked) {
        // The parking attempt was the last resort; a fault there is final.
        CompileResponse resp =
            error_response(job->req.id, ResponseStatus::kInternalError,
                           std::move(result.diag));
        finish(std::move(job), std::move(resp));
        return;
      }
      const std::uint64_t backoff =
          retry_backoff_ms(opts_.retry, job->attempts, job->key);
      const std::uint64_t rem = remaining_deadline_ms(*job);
      const bool deadline_allows =
          !job->has_deadline || rem > backoff + opts_.retry.min_headroom_ms;
      if (should_retry(opts_.retry, FailureClass::kTransient, job->attempts) &&
          deadline_allows) {
        {
          std::lock_guard<std::mutex> lk(counters_mu_);
          ++counters_.retried;
        }
        PARMEM_COUNTER_ADD("service.retried", 1);
        requeue(std::move(job),
                Clock::now() + std::chrono::milliseconds(backoff));
        return;
      }
      // Attempts (or the deadline) ran out: escalate to the degraded
      // parking attempt so the request still ends with an artifact when
      // one is producible at all.
      job->parked = true;
      {
        std::lock_guard<std::mutex> lk(counters_mu_);
        ++counters_.escalated;
      }
      PARMEM_COUNTER_ADD("service.escalated", 1);
      requeue(std::move(job), Clock::now());
      return;
    }
  }
}

std::uint64_t serve(ByteStream& stream, CompileService& service) {
  return serve_frames(stream, submit_to(service));
}

SubmitFn submit_to(CompileService& service) {
  return [&service](CompileRequest req, CompileService::Callback done) {
    service.submit(std::move(req), std::move(done));
  };
}

void LiveConnection::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void LiveConnection::set(int fd) {
  std::lock_guard<std::mutex> lk(mu_);
  fd_ = fd;
}

std::uint64_t serve_connections(int listen_fd, int stop_fd,
                                const SubmitFn& submit, LiveConnection* live) {
  std::uint64_t served = 0;
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_fd, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    // accept_with_retry rides out EINTR and transient fd/memory exhaustion
    // (bounded backoff, connections wait in the backlog) instead of
    // dropping the connection, or leaving the loop, on the first blip.
    const int conn = support::accept_with_retry(listen_fd);
    if (conn < 0) continue;
    support::set_tcp_nodelay(conn);
    if (live != nullptr) live->set(conn);
    FdStream stream(conn, conn, stop_fd);
    try {
      served += serve_frames(stream, submit);
    } catch (const std::exception&) {
      // This connection is lost; the next one finds the same service.
    }
    if (live != nullptr) live->set(-1);
    ::close(conn);
  }
  return served;
}

std::uint64_t serve_frames(ByteStream& stream, const SubmitFn& submit) {
  std::mutex io_mu;  // guards write_frame and `written`
  std::uint64_t written = 0;
  std::mutex pending_mu;
  std::condition_variable pending_cv;
  std::size_t pending = 0;

  const auto write_response = [&](const CompileResponse& resp) {
    std::lock_guard<std::mutex> lk(io_mu);
    try {
      PARMEM_FAULT_POINT("service.respond", nullptr);
      write_frame(stream, format_response(resp));
      ++written;
    } catch (const std::exception&) {
      // The peer is gone (or a respond fault fired); the service result is
      // already terminal, so the loop just keeps draining.
    }
  };

  for (;;) {
    std::string payload;
    bool got = false;
    try {
      got = read_frame(stream, payload);
    } catch (const support::UserError& e) {
      // A malformed frame leaves the byte stream out of sync; answer once
      // and stop reading.
      write_response(error_response(0, ResponseStatus::kUserError, e.what()));
      break;
    }
    if (!got) break;  // clean EOF

    CompileRequest req;
    try {
      req = parse_request(payload);
    } catch (const support::UserError& e) {
      write_response(error_response(0, ResponseStatus::kUserError, e.what()));
      continue;
    }

    {
      std::lock_guard<std::mutex> lk(pending_mu);
      ++pending;
    }
    submit(std::move(req), [&](const CompileResponse& resp) {
      write_response(resp);
      // Notify under the lock: the waiter in serve() destroys pending_cv
      // as soon as it observes pending == 0, so the broadcast must have
      // returned before this thread releases pending_mu.
      std::lock_guard<std::mutex> lk(pending_mu);
      --pending;
      pending_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lk(pending_mu);
  pending_cv.wait(lk, [&] { return pending == 0; });
  lk.unlock();

  std::lock_guard<std::mutex> io_lk(io_mu);
  return written;
}

}  // namespace parmem::service
