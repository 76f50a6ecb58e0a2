#include "router/router.h"

#include <algorithm>
#include <utility>

#include "service/server.h"
#include "support/diagnostics.h"
#include "support/fault_injection.h"
#include "support/rng.h"

namespace parmem::router {

using Clock = std::chrono::steady_clock;

namespace {

std::chrono::milliseconds ms(std::uint64_t v) {
  return std::chrono::milliseconds(static_cast<std::int64_t>(v));
}

std::uint64_t elapsed_ms(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

/// The liveness probe: the smallest well-formed compile request. Any
/// terminal status proves the worker's frame loop and service are alive;
/// after the first round trip it is a result-cache hit on every worker.
service::CompileRequest heartbeat_request(std::uint64_t deadline_ms) {
  service::CompileRequest req;
  req.kind = service::RequestKind::kStream;
  req.module_count = 2;
  req.fu_count = 2;
  req.deadline_ms = deadline_ms;
  req.body = "stream 2\ntuple 0 1\n";
  return req;
}

}  // namespace

WorkerRead read_worker_response(service::ByteStream& in,
                                service::CompileResponse& resp,
                                std::string* error) {
  std::string payload;
  try {
    if (!service::read_frame(in, payload)) return WorkerRead::kEof;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = std::string("frame: ") + e.what();
    return WorkerRead::kError;
  }
  try {
    resp = service::parse_response(payload);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = std::string("payload: ") + e.what();
    return WorkerRead::kError;
  }
  return WorkerRead::kResponse;
}

Router::Router(RouterOptions opts, WorkerFactory factory)
    : opts_(std::move(opts)),
      ring_(opts_.workers, kDefaultVirtualNodes),
      factory_(std::move(factory)) {
  PARMEM_CHECK(opts_.workers > 0, "router needs at least one worker");
  PARMEM_CHECK(opts_.inflight_high > 0,
               "router in-flight high watermark must be positive");
  PARMEM_CHECK(opts_.retry.max_attempts > 0,
               "router retry policy needs at least one attempt");

  slots_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w) {
    auto slot = std::make_unique<Slot>();
    slot->index = static_cast<std::uint32_t>(w);
    slot->inflight_gauge = "route.w" + std::to_string(w) + ".inflight";
    if constexpr (telemetry::kEnabled) {
      slot->gauge_metric =
          &telemetry::Registry::instance().gauge(slot->inflight_gauge.c_str());
    }
    slots_.push_back(std::move(slot));
  }
  for (std::size_t w = 0; w < opts_.workers; ++w) {
    if (!spawn_slot(*slots_[w])) {
      for (std::size_t j = 0; j < w; ++j) teardown_slot(*slots_[j], false);
      throw support::UserError("initial spawn of router worker " +
                               std::to_string(w) + " failed");
    }
  }
  supervisor_ = std::thread(&Router::supervisor_loop, this);
}

Router::~Router() { drain(); }

void Router::bump(std::uint64_t Counters::* field, std::uint64_t delta) {
  std::lock_guard<std::mutex> lk(counters_mu_);
  counters_.*field += delta;
}

Router::Counters Router::counters() const {
  std::lock_guard<std::mutex> lk(counters_mu_);
  return counters_;
}

std::vector<Router::WorkerInfo> Router::workers() const {
  std::vector<WorkerInfo> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lk(slot->mu);
    WorkerInfo info;
    info.index = slot->index;
    info.state = slot->state;
    info.incarnation = slot->incarnation;
    info.inflight = slot->inflight;
    info.saturated = slot->saturated;
    info.routed = slot->routed;
    info.responses = slot->responses;
    out.push_back(info);
  }
  return out;
}

std::size_t Router::alive_workers() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lk(slot->mu);
    if (slot->state == WorkerState::kUp) ++n;
  }
  return n;
}

std::size_t Router::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_count_;
}

std::vector<std::uint32_t> Router::ring_workers() const {
  std::lock_guard<std::mutex> lk(ring_mu_);
  std::vector<std::uint32_t> out;
  out.reserve(slots_.size());
  for (std::uint32_t w = 0; w < slots_.size(); ++w) {
    if (ring_.contains(w)) out.push_back(w);
  }
  return out;
}

std::optional<std::uint32_t> Router::owner_of(std::uint64_t key) const {
  std::lock_guard<std::mutex> lk(ring_mu_);
  return ring_.owner(key);
}

std::uint64_t Router::ring_digest() const {
  std::lock_guard<std::mutex> lk(ring_mu_);
  std::string owners;
  owners.reserve(4096);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const auto owner = ring_.owner(key);
    owners.push_back(owner.has_value() ? static_cast<char>(*owner) : '\xff');
  }
  return service::fnv1a64(owners);
}

void Router::publish_gauge(Slot& slot, std::size_t inflight) {
  if constexpr (telemetry::kEnabled) {
    telemetry::record(*slot.gauge_metric, slot.inflight_gauge.c_str(),
                      static_cast<std::int64_t>(inflight));
  } else {
    (void)slot;
    (void)inflight;
  }
}

void Router::submit(service::CompileRequest req, Callback done) {
  auto p = std::make_unique<Pending>();
  p->key = service::cache_key(req);
  p->req = std::move(req);
  p->done = std::move(done);

  bool shed_now = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    shed_now = draining_;
    ++pending_count_;
  }
  if (shed_now) {
    bump(&Counters::shed);
    PARMEM_COUNTER_ADD("route.shed", 1);
    const std::uint64_t id = p->req.id;
    finish(std::move(p),
           service::error_response(id, service::ResponseStatus::kOverloaded,
                                   "router is draining"));
    return;
  }
  try {
    // A worker would reject this request's payload under id 0, which reads
    // as a codec desync: answer it here instead.
    service::check_machine(p->req);
  } catch (const support::UserError& e) {
    const std::uint64_t id = p->req.id;
    finish(std::move(p),
           service::error_response(id, service::ResponseStatus::kUserError,
                                   e.what()));
    return;
  }
  bump(&Counters::accepted);
  PARMEM_COUNTER_ADD("route.submitted", 1);
  route(std::move(p), /*fresh=*/true);
}

std::future<service::CompileResponse> Router::submit(
    service::CompileRequest req) {
  auto promise = std::make_shared<std::promise<service::CompileResponse>>();
  std::future<service::CompileResponse> fut = promise->get_future();
  submit(std::move(req), [promise](const service::CompileResponse& resp) {
    promise->set_value(resp);
  });
  return fut;
}

service::CompileResponse Router::handle(service::CompileRequest req) {
  return submit(std::move(req)).get();
}

void Router::enqueue_locked(Slot& slot, std::unique_ptr<Pending> p) {
  const std::uint64_t wire_id = slot.next_wire_id++;
  service::CompileRequest wire_req = p->req;
  wire_req.id = wire_id;
  if (!p->heartbeat) {
    ++slot.inflight;
    ++slot.routed;
    if (slot.inflight >= opts_.inflight_high) slot.saturated = true;
    publish_gauge(slot, slot.inflight);
  }
  slot.outbox.push_back(service::encode_frame(service::format_request(wire_req)));
  slot.wire.emplace(wire_id, std::move(p));
  slot.out_cv.notify_one();
}

void Router::route(std::unique_ptr<Pending> p, bool fresh) {
  ++p->attempts;
  std::vector<std::uint32_t> order;
  {
    std::lock_guard<std::mutex> lk(ring_mu_);
    order = ring_.failover_order(p->key);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    Slot& slot = *slots_[order[i]];
    bool sent = false;
    {
      std::lock_guard<std::mutex> lk(slot.mu);
      if (slot.state != WorkerState::kUp) continue;
      if (slot.saturated) {
        if (slot.inflight <= opts_.inflight_high / 2) {
          slot.saturated = false;
        } else {
          continue;
        }
      }
      if (slot.inflight >= opts_.inflight_high) {
        slot.saturated = true;
        continue;
      }
      enqueue_locked(slot, std::move(p));
      sent = true;
    }
    if (sent) {
      bump(&Counters::routed);
      PARMEM_COUNTER_ADD("route.routed", 1);
      if (i != 0) {
        bump(&Counters::spilled);
        PARMEM_COUNTER_ADD("route.spilled", 1);
      }
      return;
    }
  }

  // No live worker below its watermark.
  const std::uint64_t id = p->req.id;
  if (fresh) {
    bump(&Counters::shed);
    PARMEM_COUNTER_ADD("route.shed", 1);
    finish(std::move(p),
           service::error_response(
               id, service::ResponseStatus::kOverloaded,
               "fleet saturated: no live worker below watermark"));
    return;
  }
  if (p->attempts >= opts_.retry.max_attempts) {
    bump(&Counters::failed);
    PARMEM_COUNTER_ADD("route.failed", 1);
    finish(std::move(p),
           service::error_response(
               id, service::ResponseStatus::kInternalError,
               "worker connection lost; routing attempts exhausted"));
    return;
  }
  defer(std::move(p));
}

void Router::defer(std::unique_ptr<Pending> p) {
  const std::uint64_t backoff =
      service::retry_backoff_ms(opts_.retry, p->attempts, p->key);
  bump(&Counters::retried);
  PARMEM_COUNTER_ADD("route.retried", 1);
  std::lock_guard<std::mutex> lk(mu_);
  retry_.push_back({std::move(p), Clock::now() + ms(backoff)});
  supervisor_cv_.notify_one();
}

void Router::redrive(std::unique_ptr<Pending> p) {
  bump(&Counters::redriven);
  PARMEM_COUNTER_ADD("route.redriven", 1);
  if (p->attempts >= opts_.retry.max_attempts) {
    bump(&Counters::failed);
    PARMEM_COUNTER_ADD("route.failed", 1);
    const std::uint64_t id = p->req.id;
    finish(std::move(p),
           service::error_response(
               id, service::ResponseStatus::kInternalError,
               "worker connection lost; routing attempts exhausted"));
    return;
  }
  defer(std::move(p));
}

void Router::finish(std::unique_ptr<Pending> p,
                    service::CompileResponse resp) {
  // Counter before callback: once a client observes its terminal response,
  // counters().completed already accounts for it. pending_count_ still
  // drops after the callback so drain() can't return mid-callback.
  bump(&Counters::completed);
  if (p->done) p->done(resp);
  {
    std::lock_guard<std::mutex> lk(mu_);
    PARMEM_CHECK(pending_count_ > 0, "router pending count underflow");
    --pending_count_;
  }
  drain_cv_.notify_all();
}

bool Router::spawn_slot(Slot& slot) {
  std::unique_ptr<WorkerChannel> chan;
  try {
    PARMEM_FAULT_POINT("router.spawn", nullptr);
    chan = factory_(slot.index, slot.incarnation);
  } catch (const std::exception&) {
    chan = nullptr;
  }
  if (chan == nullptr) {
    bump(&Counters::spawn_failures);
    PARMEM_COUNTER_ADD("route.spawn_failed", 1);
    return false;
  }
  std::uint32_t inc = 0;
  {
    std::lock_guard<std::mutex> lk(slot.mu);
    slot.chan = std::move(chan);
    slot.state = WorkerState::kUp;
    slot.wire.clear();
    slot.outbox.clear();
    slot.inflight = 0;
    slot.saturated = false;
    slot.writer_stop = false;
    slot.hb_outstanding = false;
    slot.last_beat = Clock::now();
    slot.threads_live = true;
    inc = slot.incarnation;
    publish_gauge(slot, 0);
  }
  slot.reader = std::thread(&Router::reader_loop, this, std::ref(slot), inc);
  slot.writer = std::thread(&Router::writer_loop, this, std::ref(slot), inc);
  return true;
}

void Router::reader_loop(Slot& slot, std::uint32_t incarnation) {
  for (;;) {
    service::CompileResponse resp;
    std::string err;
    WorkerRead r = read_worker_response(slot.chan->stream(), resp, &err);
    if (r == WorkerRead::kResponse) {
      try {
        PARMEM_FAULT_POINT("router.worker_response", nullptr);
      } catch (const std::exception& e) {
        r = WorkerRead::kError;
        err = e.what();
      }
    }
    if (r != WorkerRead::kResponse) {
      if (r == WorkerRead::kError) {
        bump(&Counters::protocol_errors);
        PARMEM_COUNTER_ADD("route.protocol_errors", 1);
      }
      worker_down(slot, incarnation, r == WorkerRead::kEof ? "eof" : err);
      return;
    }

    std::unique_ptr<Pending> p;
    {
      std::lock_guard<std::mutex> lk(slot.mu);
      if (slot.incarnation != incarnation ||
          slot.state != WorkerState::kUp) {
        return;  // swept concurrently; the sweep owns every pending
      }
      const auto it = slot.wire.find(resp.id);
      if (it == slot.wire.end()) {
        if (resp.id == 0) {
          // The worker rejected one of our payloads as malformed — the
          // codec desynced; nothing on this stream can be trusted.
          break;
        }
        bump(&Counters::late_responses);
        PARMEM_COUNTER_ADD("route.late_responses", 1);
        continue;
      }
      p = std::move(it->second);
      slot.wire.erase(it);
      ++slot.responses;
      slot.last_beat = Clock::now();
      slot.failed_spawns = 0;
      if (p->heartbeat) {
        slot.hb_outstanding = false;
      } else {
        PARMEM_CHECK(slot.inflight > 0, "router slot inflight underflow");
        --slot.inflight;
        if (slot.saturated && slot.inflight <= opts_.inflight_high / 2) {
          slot.saturated = false;
        }
        publish_gauge(slot, slot.inflight);
      }
    }
    if (p->heartbeat) {
      bump(&Counters::heartbeats_ok);
      continue;
    }
    resp.id = p->req.id;
    finish(std::move(p), std::move(resp));
  }
  bump(&Counters::protocol_errors);
  PARMEM_COUNTER_ADD("route.protocol_errors", 1);
  worker_down(slot, incarnation, "worker response under id 0: codec desync");
}

void Router::writer_loop(Slot& slot, std::uint32_t incarnation) {
  for (;;) {
    std::string frame;
    {
      std::unique_lock<std::mutex> lk(slot.mu);
      slot.out_cv.wait(lk, [&slot] {
        return slot.writer_stop || !slot.outbox.empty();
      });
      if (slot.writer_stop) return;
      frame = std::move(slot.outbox.front());
      slot.outbox.pop_front();
    }
    try {
      slot.chan->stream().write_all(frame.data(), frame.size());
    } catch (const std::exception& e) {
      worker_down(slot, incarnation, std::string("write: ") + e.what());
      return;
    }
  }
}

void Router::worker_down(Slot& slot, std::uint32_t incarnation,
                         const std::string& reason) {
  std::vector<std::unique_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lk(slot.mu);
    if (slot.incarnation != incarnation || slot.state != WorkerState::kUp) {
      return;  // another thread already swept this incarnation
    }
    slot.state = WorkerState::kDead;
    slot.writer_stop = true;
    slot.out_cv.notify_all();
    slot.outbox.clear();
    orphans.reserve(slot.wire.size());
    for (auto& [wire_id, p] : slot.wire) {
      if (!p->heartbeat) orphans.push_back(std::move(p));
    }
    slot.wire.clear();
    slot.inflight = 0;
    slot.saturated = false;
    slot.hb_outstanding = false;
    publish_gauge(slot, 0);
    ++slot.failed_spawns;
    if (slot.failed_spawns > opts_.max_respawns) {
      slot.state = WorkerState::kFailed;
    } else {
      slot.respawn_at =
          Clock::now() + ms(support::backoff_with_jitter_ms(
                             opts_.respawn_base_ms, opts_.respawn_cap_ms,
                             slot.failed_spawns, slot.index));
    }
    // Make sure the peer is fully gone so the writer (possibly mid-write)
    // errors out instead of blocking, and a process worker is SIGKILLed.
    slot.chan->kill();
  }
  bool draining = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining = draining_;
    supervisor_cv_.notify_one();
  }
  if (!draining) {
    // The EOF a graceful teardown produces flows through this same sweep;
    // only genuine mid-service deaths should read as worker_down.
    bump(&Counters::worker_down);
    PARMEM_COUNTER_ADD("route.worker_down", 1);
    PARMEM_INSTANT("route.worker_down");
  }
  (void)reason;
  for (auto& p : orphans) redrive(std::move(p));
}

void Router::send_heartbeat_locked(Slot& slot, Clock::time_point now) {
  auto p = std::make_unique<Pending>();
  p->heartbeat = true;
  p->req = heartbeat_request(opts_.heartbeat_timeout_ms);
  p->key = service::cache_key(p->req);
  enqueue_locked(slot, std::move(p));
  slot.hb_outstanding = true;
  slot.hb_sent = now;
  bump(&Counters::heartbeats_sent);
}

void Router::tick_slots(Clock::time_point now) {
  struct Action {
    Slot* slot = nullptr;
    bool join = false;
    bool respawn = false;
    bool rebalance = false;
  };
  std::vector<Action> actions;
  for (const auto& sp : slots_) {
    Slot& slot = *sp;
    std::lock_guard<std::mutex> lk(slot.mu);
    switch (slot.state) {
      case WorkerState::kUp:
        if (opts_.heartbeat_period_ms == 0) break;
        if (slot.hb_outstanding &&
            elapsed_ms(slot.hb_sent, now) >= opts_.heartbeat_timeout_ms) {
          bump(&Counters::heartbeats_missed);
          PARMEM_COUNTER_ADD("route.heartbeats_missed", 1);
          slot.hb_sent = now;  // don't re-kill every tick
          slot.chan->kill();   // reader's EOF runs the death sweep
        } else if (!slot.hb_outstanding &&
                   elapsed_ms(slot.last_beat, now) >=
                       opts_.heartbeat_period_ms) {
          send_heartbeat_locked(slot, now);
        }
        break;
      case WorkerState::kDead:
        actions.push_back({&slot, slot.threads_live,
                           now >= slot.respawn_at, false});
        break;
      case WorkerState::kFailed:
        if (slot.threads_live || !slot.rebalanced) {
          // The rebalance runs once, after the dead incarnation's threads
          // are joined; marking here (under slot.mu) makes it one-shot.
          const bool rebalance = !slot.rebalanced;
          slot.rebalanced = true;
          actions.push_back({&slot, slot.threads_live, false, rebalance});
        }
        break;
    }
  }
  for (const Action& a : actions) {
    if (a.join) join_slot_threads(*a.slot);
    if (a.rebalance) {
      bool draining = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        draining = draining_;
      }
      if (!draining) rebalance_slot(*a.slot);
    }
    if (!a.respawn) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (draining_) continue;  // drain stops respawning; teardown reaps
    }
    {
      // workers() reads the incarnation under slot.mu.
      std::lock_guard<std::mutex> lk(a.slot->mu);
      ++a.slot->incarnation;
    }
    if (spawn_slot(*a.slot)) {
      bump(&Counters::respawns);
      PARMEM_COUNTER_ADD("route.respawns", 1);
    } else {
      std::lock_guard<std::mutex> lk(a.slot->mu);
      ++a.slot->failed_spawns;
      if (a.slot->failed_spawns > opts_.max_respawns) {
        a.slot->state = WorkerState::kFailed;
      } else {
        a.slot->respawn_at =
            Clock::now() + ms(support::backoff_with_jitter_ms(
                               opts_.respawn_base_ms, opts_.respawn_cap_ms,
                               a.slot->failed_spawns, a.slot->index));
      }
    }
  }
}

void Router::rebalance_slot(Slot& slot) {
  {
    std::lock_guard<std::mutex> lk(ring_mu_);
    if (!ring_.contains(slot.index)) return;
    ring_.remove_worker(slot.index);
  }
  // From here the failed slot's keyspace deterministically belongs to the
  // survivors: failover_order no longer lists it, and the new owner is the
  // *primary* for those keys (routing there is no longer a spill). The
  // ring transition is a pure function of the surviving member set —
  // identical across runs, pinnable by digest.
  bump(&Counters::rebalanced);
  PARMEM_COUNTER_ADD("route.rebalance.retired", 1);
  PARMEM_INSTANT("route.rebalance.retired");
  if (!opts_.shard_migrator) return;

  const OwnerFn owner_fn = [this](std::uint64_t key) {
    std::lock_guard<std::mutex> lk(ring_mu_);
    return ring_.owner(key);
  };
  RebalanceReport report;
  try {
    report = opts_.shard_migrator(slot.index, owner_fn);
  } catch (const std::exception&) {
    // Migration is best-effort warmth, never correctness: the keyspace has
    // already moved; the successors just warm organically instead.
    PARMEM_COUNTER_ADD("route.rebalance.migrate_failures", 1);
    return;
  }
  if (report.migrated_entries > 0) {
    bump(&Counters::migrated_entries, report.migrated_entries);
    PARMEM_COUNTER_ADD("route.rebalance.migrated", report.migrated_entries);
  }
  if (report.skipped_entries > 0) {
    PARMEM_COUNTER_ADD("route.rebalance.skipped", report.skipped_entries);
  }
  // Recycle each warmed survivor with a hard kill: the ordinary death
  // sweep re-drives its in-flights (exactly-once holds) and the respawn's
  // fresh incarnation warm-loads the merged journal from disk — the same
  // machinery a crash exercises, so warm-restart identity is already
  // covered by the existing byte-identity checks.
  std::uint64_t recycled = 0;
  for (const std::uint32_t w : report.warmed_workers) {
    if (w >= slots_.size() || w == slot.index) continue;
    Slot& s = *slots_[w];
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.state == WorkerState::kUp && s.chan) {
      s.chan->kill();
      ++recycled;
    }
  }
  if (recycled > 0) {
    bump(&Counters::recycled_workers, recycled);
    PARMEM_COUNTER_ADD("route.rebalance.recycled", recycled);
  }
}

void Router::join_slot_threads(Slot& slot) {
  // worker_down already set writer_stop and killed the channel, so both
  // threads are exiting; these joins only wait out their last few lines.
  if (slot.writer.joinable()) slot.writer.join();
  if (slot.reader.joinable()) slot.reader.join();
  std::lock_guard<std::mutex> lk(slot.mu);
  if (slot.chan) slot.chan->join();
  slot.threads_live = false;
}

void Router::teardown_slot(Slot& slot, bool graceful) {
  {
    std::lock_guard<std::mutex> lk(slot.mu);
    slot.writer_stop = true;
    slot.out_cv.notify_all();
  }
  if (slot.writer.joinable()) slot.writer.join();
  if (slot.chan) {
    if (graceful) {
      slot.chan->stop_input();  // worker drains, responds, exits -> EOF
    } else {
      slot.chan->kill();
    }
  }
  if (slot.reader.joinable()) slot.reader.join();
  std::lock_guard<std::mutex> lk(slot.mu);
  if (slot.chan) slot.chan->join();
  slot.threads_live = false;
}

void Router::supervisor_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_supervisor_) {
    const Clock::time_point now = Clock::now();
    std::vector<std::unique_ptr<Pending>> due;
    for (auto it = retry_.begin(); it != retry_.end();) {
      if (it->not_before <= now) {
        due.push_back(std::move(it->pending));
        it = retry_.erase(it);
      } else {
        ++it;
      }
    }
    lk.unlock();
    for (auto& p : due) route(std::move(p), /*fresh=*/false);
    tick_slots(now);
    lk.lock();
    if (stop_supervisor_) break;
    supervisor_cv_.wait_for(lk, ms(opts_.supervisor_poll_ms));
  }
}

void Router::kill_worker(std::uint32_t w) {
  PARMEM_CHECK(w < slots_.size(), "kill_worker index out of range");
  Slot& slot = *slots_[w];
  std::lock_guard<std::mutex> lk(slot.mu);
  if (slot.chan) slot.chan->kill();
}

void Router::drain() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    draining_ = true;
    drain_cv_.wait(lk, [this] { return pending_count_ == 0; });
    if (joined_) return;
    joined_ = true;
    stop_supervisor_ = true;
    supervisor_cv_.notify_all();
  }
  if (supervisor_.joinable()) supervisor_.join();
  for (auto& slot : slots_) teardown_slot(*slot, /*graceful=*/true);
}

}  // namespace parmem::router
