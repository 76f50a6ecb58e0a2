// parmem-router: the sharded front tier over a fleet of parmemd workers.
//
// A Router owns N supervised worker channels (channel.h) and fans client
// requests out with consistent-hash routing (ring.h) keyed by the request's
// cacheable-part hash, so each worker's result/atom caches concentrate on a
// stable shard of the key space — and keep that shard across restarts,
// because a transiently dead worker keeps its ring points (its keys spill
// to successors and come straight back on respawn). Only a *permanent*
// failure (max_respawns exhausted) changes membership: the rebalancer
// retires the failed slot's virtual nodes from the live ring, so its
// keyspace deterministically re-homes to the survivors, and an optional
// ShardMigrator moves the failed slot's on-disk result journal to the new
// owners, which are then recycled so their respawn warm-loads the merged
// journal.
//
// Request lifecycle (DESIGN.md §14):
//
//   submit --> draining? ------------------------------> respond kOverloaded
//          --> walk failover_order(key): first worker that is up and below
//              its in-flight high watermark gets the request (the primary
//              when healthy — anything else counts as a spill)
//            --> no candidate ------------------------->  respond kOverloaded
//          --> frame on the worker's outbox under a fresh wire id (the
//              original id is restored on the way back; cache keys ignore
//              ids, so re-iding never splits a worker's cache)
//   reader --> response frame -------------------------> terminal to client
//          --> EOF / bad frame / bad payload ----------> worker death:
//              every in-flight request for that worker is *re-driven* —
//              re-routed through the retry policy (capped jittered backoff
//              seeded by the cache key) until it lands on a live worker or
//              exhausts its attempts (then kInternalError). The dead worker
//              is respawned with its own bounded jittered backoff; after
//              max_respawns consecutive failures it is marked failed, its
//              virtual nodes are retired from the live ring, and its shard
//              is rebalanced onto the surviving owners (journal migration +
//              successor recycle when a ShardMigrator is configured).
//   supervisor --> heartbeats (a tiny canonical compile request; ANY
//              terminal status counts as a beat — a shedding worker is an
//              overloaded worker, not a dead one) with a hard timeout that
//              kills the channel, funneling slow-death into the same
//              EOF-driven path as a crash.
//
// Exactly-one-terminal-response: a request lives in exactly one place at a
// time — a submitting thread, one worker's wire map, or the retry queue —
// moved as a unique_ptr under the owning lock, and finish() is the only
// call site of the client callback. A worker's terminal response removes
// the request from the wire map before the callback fires; a death sweep
// atomically empties the map before re-driving; a response arriving for a
// wire id that was already swept (the respawn raced an old in-flight
// compile) is counted and dropped, never double-delivered.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "router/channel.h"
#include "router/ring.h"
#include "service/request.h"
#include "service/retry.h"
#include "telemetry/telemetry.h"

namespace parmem::router {

/// Report from a ShardMigrator: how many result-journal entries moved to
/// surviving owners' directories, how many were left behind (unparseable
/// name, ring empty, rename failure), and which workers' journals gained
/// entries — the router recycles those workers so their next incarnation
/// warm-loads the merged journal through the ordinary respawn path.
struct RebalanceReport {
  std::uint64_t migrated_entries = 0;
  std::uint64_t skipped_entries = 0;
  std::vector<std::uint32_t> warmed_workers;
};

/// Maps a cache key to its current live-ring owner (nullopt when every
/// slot has failed). Thread-safe; valid only during the migrator call.
using OwnerFn = std::function<std::optional<std::uint32_t>(std::uint64_t)>;

/// Invoked once per permanently failed slot, after its virtual nodes have
/// been retired from the live ring, from the supervisor thread. Exceptions
/// are swallowed (migration is best-effort; routing correctness never
/// depends on it).
using ShardMigrator = std::function<RebalanceReport(
    std::uint32_t failed_index, const OwnerFn& owner_of)>;

struct RouterOptions {
  /// Fleet size; each worker owns kDefaultVirtualNodes ring points.
  std::size_t workers = 2;
  /// Router-side mirror of parmemd's admission watermarks: a worker with
  /// this many router-tracked in-flight requests stops receiving new ones
  /// (they spill to the next ring node) until it drains back to half of it.
  std::size_t inflight_high = 32;
  /// Heartbeat send period (0 disables) and the silence past an outstanding
  /// heartbeat before the worker is declared dead and killed.
  std::uint64_t heartbeat_period_ms = 250;
  std::uint64_t heartbeat_timeout_ms = 5000;
  /// Supervisor scan period (respawns, retries, heartbeats).
  std::uint64_t supervisor_poll_ms = 5;
  /// Re-drive policy for requests orphaned by a worker death: max_attempts
  /// routing attempts per request, backoff between them (jitter seeded by
  /// the cache key — the same schedule parmemd itself uses).
  service::RetryPolicy retry;
  /// Consecutive failed/ crashed spawns before a worker slot is marked
  /// failed for good (its shard then lives with the ring successors).
  std::uint32_t max_respawns = 8;
  std::uint64_t respawn_base_ms = 20;
  std::uint64_t respawn_cap_ms = 2000;
  /// Cache-shard migration hook for the rebalance that follows a permanent
  /// slot failure (see rebalance.h for the on-disk implementation). Unset:
  /// the keyspace still moves to the surviving owners, but their caches
  /// warm organically instead of from the failed slot's journal.
  ShardMigrator shard_migrator;
};

/// Outcome of reading one frame off a worker connection.
enum class WorkerRead : std::uint8_t {
  kResponse,  // a well-formed response was parsed
  kEof,       // clean end of stream
  kError,     // transport/frame/payload failure — the stream is untrusted
};

/// The router's worker-facing codec path, isolated so the fuzz corpus can
/// drive it directly: reads one frame and parses it as a CompileResponse.
/// Never throws — every malformed byte sequence (truncated frame, bad
/// magic, oversize length, garbage payload, response whose body length
/// lies) collapses to kError with a one-line reason in `error`.
WorkerRead read_worker_response(service::ByteStream& in,
                                service::CompileResponse& resp,
                                std::string* error = nullptr);

class Router {
 public:
  using Callback = std::function<void(const service::CompileResponse&)>;

  /// Always-live monotonic counters (like CompileService::Counters, so the
  /// soak and chaos harnesses can assert in any build configuration).
  struct Counters {
    std::uint64_t accepted = 0;      // admitted (not shed at submit)
    std::uint64_t shed = 0;          // kOverloaded terminals from the router
    std::uint64_t routed = 0;        // frames handed to a worker outbox
    std::uint64_t spilled = 0;       // routed to a non-primary worker
    std::uint64_t redriven = 0;      // re-queued by a worker death sweep
    std::uint64_t retried = 0;       // deferred with backoff by the router
    std::uint64_t failed = 0;        // kInternalError terminals (attempts out)
    std::uint64_t worker_down = 0;   // death sweeps
    std::uint64_t respawns = 0;      // successful respawns
    std::uint64_t spawn_failures = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_ok = 0;
    std::uint64_t heartbeats_missed = 0;  // timeouts that killed a worker
    std::uint64_t late_responses = 0;     // dropped: wire id already swept
    std::uint64_t protocol_errors = 0;    // malformed worker bytes
    std::uint64_t completed = 0;          // terminal responses of any status
    std::uint64_t rebalanced = 0;         // failed slots retired from the ring
    std::uint64_t migrated_entries = 0;   // journal entries moved by migrators
    std::uint64_t recycled_workers = 0;   // successors cycled to warm-load
  };

  enum class WorkerState : std::uint8_t { kUp, kDead, kFailed };

  struct WorkerInfo {
    std::uint32_t index = 0;
    WorkerState state = WorkerState::kDead;
    std::uint32_t incarnation = 0;  // respawn count since construction
    std::size_t inflight = 0;
    bool saturated = false;
    std::uint64_t routed = 0;
    std::uint64_t responses = 0;
  };

  /// Spawns the fleet synchronously via `factory` (throws when an initial
  /// spawn fails). The ring is fixed over workers 0..opts.workers-1.
  Router(RouterOptions opts, WorkerFactory factory);
  ~Router();  // drains

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Asynchronous submit. `done` fires exactly once with the terminal
  /// response — synchronously on the calling thread when shed, otherwise on
  /// a router reader thread.
  void submit(service::CompileRequest req, Callback done);

  /// Future-returning convenience over the callback form.
  std::future<service::CompileResponse> submit(service::CompileRequest req);

  /// Synchronous convenience: submit and wait for the terminal response.
  service::CompileResponse handle(service::CompileRequest req);

  /// Stops admission, waits for every admitted request's terminal response
  /// (re-driving across deaths as usual), then stops workers gracefully.
  /// Idempotent; also run by the destructor.
  void drain();

  /// Chaos hook: hard-kill worker `w`'s channel (SIGKILL for a process
  /// worker). Supervision notices via the reader's EOF and respawns.
  void kill_worker(std::uint32_t w);

  Counters counters() const;
  std::vector<WorkerInfo> workers() const;
  std::size_t alive_workers() const;
  std::size_t pending() const;
  /// Live ring membership: the configured workers minus permanently failed
  /// (retired) slots, in ascending index order.
  std::vector<std::uint32_t> ring_workers() const;
  /// The live-ring primary for a cache key, or nullopt when every slot has
  /// failed.
  std::optional<std::uint32_t> owner_of(std::uint64_t key) const;
  /// FNV-1a digest of the live ring's owner assignment over cache keys
  /// 0..4095 — a pure function of the member set, so a rebalanced ring's
  /// digest is pinnable in tests and identical across runs.
  std::uint64_t ring_digest() const;
  const RouterOptions& options() const { return opts_; }

 private:
  struct Pending {
    service::CompileRequest req;  // original id preserved
    Callback done;
    std::uint64_t key = 0;
    std::uint32_t attempts = 0;  // routing attempts consumed
    bool heartbeat = false;
  };

  struct Slot {
    std::uint32_t index = 0;
    std::string inflight_gauge;  // stable storage for the telemetry name
    telemetry::Metric* gauge_metric = nullptr;

    mutable std::mutex mu;
    WorkerState state = WorkerState::kDead;
    std::unique_ptr<WorkerChannel> chan;
    std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> wire;
    std::uint64_t next_wire_id = 1;
    std::size_t inflight = 0;  // non-heartbeat wire entries
    bool saturated = false;
    std::uint32_t incarnation = 0;
    std::uint32_t failed_spawns = 0;  // consecutive
    std::chrono::steady_clock::time_point respawn_at{};
    bool threads_live = false;
    bool rebalanced = false;  // failed slot already retired from the ring

    bool hb_outstanding = false;
    std::chrono::steady_clock::time_point hb_sent{};
    std::chrono::steady_clock::time_point last_beat{};

    std::deque<std::string> outbox;  // framed request bytes
    std::condition_variable out_cv;
    bool writer_stop = false;
    std::thread reader;
    std::thread writer;

    std::uint64_t routed = 0;
    std::uint64_t responses = 0;
  };

  struct Deferred {
    std::unique_ptr<Pending> pending;
    std::chrono::steady_clock::time_point not_before{};
  };

  void reader_loop(Slot& slot, std::uint32_t incarnation);
  void writer_loop(Slot& slot, std::uint32_t incarnation);
  /// Enqueues one framed request on `slot`'s outbox. Caller holds slot.mu.
  void enqueue_locked(Slot& slot, std::unique_ptr<Pending> p);
  /// Routes a pending to the first eligible worker in ring order. Consumes
  /// one attempt. Falls back to shed / defer / fail per the lifecycle.
  void route(std::unique_ptr<Pending> p, bool fresh);
  void defer(std::unique_ptr<Pending> p);
  void finish(std::unique_ptr<Pending> p, service::CompileResponse resp);
  /// Death sweep: marks the slot dead, drains its wire map, re-drives the
  /// orphaned requests. Idempotent per incarnation.
  void worker_down(Slot& slot, std::uint32_t incarnation,
                   const std::string& reason);
  void redrive(std::unique_ptr<Pending> p);
  /// Spawns (or respawns) a slot's channel + threads. Caller must have
  /// joined any previous incarnation's threads.
  bool spawn_slot(Slot& slot);
  void join_slot_threads(Slot& slot);
  /// Stops a slot for good: writer join, graceful EOF (or kill), reader
  /// join, channel reap.
  void teardown_slot(Slot& slot, bool graceful);
  void supervisor_loop();
  /// Heartbeat + respawn scan; takes each slot's lock briefly, never mu_.
  void tick_slots(std::chrono::steady_clock::time_point now);
  /// Retires a permanently failed slot's virtual nodes from the live ring,
  /// runs the shard migrator, and recycles the warmed successors. Runs on
  /// the supervisor thread, once per failed slot, after its threads are
  /// joined.
  void rebalance_slot(Slot& slot);
  void send_heartbeat_locked(Slot& slot,
                             std::chrono::steady_clock::time_point now);
  void publish_gauge(Slot& slot, std::size_t inflight);
  void bump(std::uint64_t Counters::* field, std::uint64_t delta = 1);

  RouterOptions opts_;
  /// The live ring. Construction populates it with every configured worker;
  /// the only later mutation is rebalance_slot retiring a permanently
  /// failed slot, so lookups take ring_mu_ (leaf lock, held only for the
  /// lookup itself — never while a slot lock or mu_ is wanted).
  mutable std::mutex ring_mu_;
  HashRing ring_;
  WorkerFactory factory_;
  std::vector<std::unique_ptr<Slot>> slots_;

  mutable std::mutex mu_;  // draining flag, retry queue, pending count
  std::condition_variable drain_cv_;
  std::condition_variable supervisor_cv_;
  std::deque<Deferred> retry_;
  std::size_t pending_count_ = 0;
  bool draining_ = false;
  bool stop_supervisor_ = false;
  bool joined_ = false;

  mutable std::mutex counters_mu_;
  Counters counters_;

  std::thread supervisor_;
};

}  // namespace parmem::router
