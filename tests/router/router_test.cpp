// End-to-end contract of the router fleet (router.h): consistent-hash
// affinity, watermark spill, shed at saturation, kill/respawn with
// re-driven in-flight requests, heartbeat liveness, and — above all —
// exactly one terminal response per submitted request, no matter how many
// workers die mid-flight.
#include "router/router.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/request.h"
#include "service/server.h"
#include "support/rng.h"

namespace parmem::router {
namespace {

using service::CompileRequest;
using service::CompileResponse;
using service::RequestKind;
using service::ResponseStatus;

RouterOptions fast_options(std::size_t workers) {
  RouterOptions opts;
  opts.workers = workers;
  opts.supervisor_poll_ms = 2;
  opts.heartbeat_period_ms = 25;
  opts.heartbeat_timeout_ms = 2000;
  opts.respawn_base_ms = 5;
  opts.respawn_cap_ms = 50;
  opts.retry.base_backoff_ms = 2;
  opts.retry.max_backoff_ms = 20;
  return opts;
}

WorkerFactory inprocess_factory(std::size_t threads_per_worker = 1) {
  return [threads_per_worker](std::uint32_t, std::uint32_t) {
    service::ServiceOptions opts;
    opts.workers = threads_per_worker;
    opts.queue_capacity = 256;
    return spawn_inprocess_worker(opts);
  };
}

CompileRequest tiny_stream(std::uint64_t id) {
  CompileRequest req;
  req.id = id;
  req.kind = RequestKind::kStream;
  req.module_count = 2;
  req.fu_count = 2;
  req.body = "stream 2\ntuple 0 1\n";
  return req;
}

/// A unique, moderately expensive stream request — guaranteed cache miss,
/// long enough to still be in flight when a test kills its worker.
CompileRequest heavy_stream(std::uint64_t id, std::uint64_t salt) {
  support::SplitMix64 rng(salt);
  const std::uint64_t values = 96;
  std::string text = "stream " + std::to_string(values) + "\n";
  for (std::uint64_t t = 0; t < 220; ++t) {
    const std::uint64_t a = rng.below(values);
    const std::uint64_t b = (a + 1 + rng.below(values - 1)) % values;
    text += "tuple " + std::to_string(a) + ' ' + std::to_string(b) + '\n';
  }
  CompileRequest req;
  req.id = id;
  req.kind = RequestKind::kStream;
  req.module_count = 8;
  req.fu_count = 8;
  req.body = std::move(text);
  return req;
}

bool wait_until(const std::function<bool()>& cond, std::uint64_t budget_ms) {
  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < t_end) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

TEST(Router, RoundTripsRequestsAcrossTheFleet) {
  Router rt(fast_options(2), inprocess_factory());
  for (std::uint64_t i = 1; i <= 8; ++i) {
    const CompileResponse resp = rt.handle(heavy_stream(i, i));
    EXPECT_TRUE(resp.ok()) << resp.diagnostic;
    EXPECT_EQ(resp.id, i);
    EXPECT_FALSE(resp.body.empty());
  }
  const auto c = rt.counters();
  EXPECT_EQ(c.accepted, 8u);
  EXPECT_EQ(c.completed, 8u);
  EXPECT_EQ(c.failed, 0u);
  rt.drain();
}

TEST(Router, ResponseCarriesTheClientIdNotTheWireId) {
  Router rt(fast_options(2), inprocess_factory());
  // Distinct client ids, identical bodies: the router re-ids frames on the
  // wire, so both must come back under their own id (and hit one worker's
  // cache, since cache keys ignore ids).
  const CompileResponse a = rt.handle(tiny_stream(1001));
  const CompileResponse b = rt.handle(tiny_stream(2002));
  EXPECT_EQ(a.id, 1001u);
  EXPECT_EQ(b.id, 2002u);
  EXPECT_EQ(a.body, b.body);
  rt.drain();
}

// A worker rejects an out-of-bounds machine's payload under id 0, which the
// router would read as a codec desync and kill the worker for: the router
// answers such a request itself, under the client's id.
TEST(Router, OutOfBoundsMachineIsAUserErrorWithoutReachingAWorker) {
  Router rt(fast_options(1), inprocess_factory());
  CompileRequest req = tiny_stream(77);
  req.module_count = 33;
  const CompileResponse resp = rt.handle(req);
  EXPECT_EQ(resp.id, 77u);
  EXPECT_EQ(resp.status, ResponseStatus::kUserError);
  EXPECT_TRUE(rt.handle(tiny_stream(78)).ok());
  const auto c = rt.counters();
  EXPECT_EQ(c.worker_down, 0u);
  EXPECT_EQ(c.protocol_errors, 0u);
  rt.drain();
}

TEST(Router, EqualKeysStickToTheRingOwner) {
  Router rt(fast_options(3), inprocess_factory());
  const CompileRequest req = tiny_stream(1);
  const std::uint32_t owner = *rt.owner_of(service::cache_key(req));
  for (std::uint64_t i = 0; i < 6; ++i) {
    CompileRequest r = req;
    r.id = 10 + i;
    EXPECT_TRUE(rt.handle(std::move(r)).ok());
  }
  const auto workers = rt.workers();
  EXPECT_EQ(workers[owner].routed, 6u) << "affinity broken";
  for (const auto& w : workers) {
    if (w.index != owner) {
      EXPECT_EQ(w.routed, 0u);
    }
  }
  rt.drain();
}

TEST(Router, SaturatedOwnerSpillsToTheRingSuccessor) {
  RouterOptions opts = fast_options(2);
  opts.inflight_high = 1;
  opts.heartbeat_period_ms = 0;  // heartbeats would perturb routed counts
  Router rt(opts, inprocess_factory());

  // A heavy request parks on its owner; an equal-key follow-up must spill
  // to the successor instead of queueing behind it.
  const CompileRequest probe = heavy_stream(1, 0x5B1);
  const std::uint32_t owner = *rt.owner_of(service::cache_key(probe));
  auto first = rt.submit(probe);
  CompileRequest second = probe;
  second.id = 2;
  auto fut2 = rt.submit(std::move(second));
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(fut2.get().ok());
  const auto c = rt.counters();
  EXPECT_EQ(c.routed, 2u);
  EXPECT_GE(c.spilled, 1u);
  const auto workers = rt.workers();
  EXPECT_GE(workers[1 - owner].routed, 1u);
  rt.drain();
}

TEST(Router, SaturatedFleetShedsWithTerminalOverloaded) {
  RouterOptions opts = fast_options(1);
  opts.inflight_high = 1;
  opts.heartbeat_period_ms = 0;
  Router rt(opts, inprocess_factory());

  auto slow = rt.submit(heavy_stream(1, 0xFEED));
  const CompileResponse shed = rt.handle(heavy_stream(2, 0xFEED2));
  EXPECT_EQ(shed.status, ResponseStatus::kOverloaded);
  EXPECT_EQ(shed.id, 2u);
  EXPECT_TRUE(slow.get().ok());
  EXPECT_GE(rt.counters().shed, 1u);
  rt.drain();
}

TEST(Router, KilledWorkerRespawnsAndInflightRequestsAreRedriven) {
  Router rt(fast_options(2), inprocess_factory());

  std::vector<std::future<CompileResponse>> futs;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    futs.push_back(rt.submit(heavy_stream(i, 0x9000 + i)));
  }
  rt.kill_worker(0);
  rt.kill_worker(1);

  std::size_t ok = 0, failed = 0;
  for (auto& f : futs) {
    const CompileResponse resp = f.get();  // must terminate — no lost reqs
    if (resp.ok()) {
      ++ok;
    } else {
      // Only the router's own attempts-exhausted terminal is acceptable.
      EXPECT_EQ(resp.status, ResponseStatus::kInternalError);
      ++failed;
    }
  }
  EXPECT_EQ(ok + failed, 12u);
  const auto c = rt.counters();
  EXPECT_EQ(c.completed, 12u);
  EXPECT_GE(c.worker_down, 1u);
  EXPECT_GE(c.redriven, 1u) << "kill landed after all compiles finished?";

  // Supervision brings the fleet back.
  EXPECT_TRUE(wait_until([&] { return rt.alive_workers() == 2; }, 5000));
  EXPECT_GE(rt.counters().respawns, 1u);

  // And the revived fleet still serves.
  EXPECT_TRUE(rt.handle(tiny_stream(99)).ok());
  rt.drain();
}

TEST(Router, ExactlyOneTerminalResponseUnderAKillStorm) {
  RouterOptions opts = fast_options(3);
  opts.retry.max_attempts = 6;  // survive several deaths per request
  Router rt(opts, inprocess_factory());

  constexpr std::uint64_t kRequests = 60;
  std::vector<std::atomic<int>> fired(kRequests);
  std::atomic<std::uint64_t> done{0};
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    rt.submit(heavy_stream(i + 1, 0xABC00 + i),
              [&fired, &done, i](const CompileResponse& resp) {
                EXPECT_EQ(resp.id, i + 1);
                fired[i].fetch_add(1, std::memory_order_relaxed);
                done.fetch_add(1, std::memory_order_relaxed);
              });
  }

  support::SplitMix64 rng(0x57011);
  for (int kill = 0; kill < 6; ++kill) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    rt.kill_worker(static_cast<std::uint32_t>(rng.below(3)));
  }

  ASSERT_TRUE(wait_until([&] { return done.load() == kRequests; }, 60000))
      << "lost " << (kRequests - done.load()) << " requests";
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "request " << i + 1;
  }
  rt.drain();
  const auto c = rt.counters();
  EXPECT_EQ(c.completed, kRequests);
  EXPECT_EQ(c.accepted, kRequests);
}

TEST(Router, DrainShedsNewWorkAndCompletesAdmittedWork) {
  Router rt(fast_options(2), inprocess_factory());
  auto inflight = rt.submit(heavy_stream(1, 0xD8A1));
  rt.drain();
  EXPECT_TRUE(inflight.get().ok()) << "admitted work lost by drain";
  EXPECT_EQ(rt.pending(), 0u);
  const CompileResponse late = rt.handle(tiny_stream(2));
  EXPECT_EQ(late.status, ResponseStatus::kOverloaded);
}

// A worker that accepts the connection and then never answers anything —
// the shape of a wedged (not crashed) process. Only the heartbeat timeout
// can catch it.
class BlackHoleChannel : public WorkerChannel {
 public:
  BlackHoleChannel() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    router_fd_ = fds[0];
    sink_fd_ = fds[1];
    stream_ = std::make_unique<service::FdStream>(router_fd_, router_fd_);
  }
  ~BlackHoleChannel() override {
    if (router_fd_ >= 0) ::close(router_fd_);
    if (sink_fd_ >= 0) ::close(sink_fd_);
  }
  service::ByteStream& stream() override { return *stream_; }
  void stop_input() override { ::shutdown(router_fd_, SHUT_WR); }
  void kill() override { ::shutdown(router_fd_, SHUT_RDWR); }
  bool join() override { return false; }

 private:
  int router_fd_ = -1;
  int sink_fd_ = -1;
  std::unique_ptr<service::FdStream> stream_;
};

TEST(Router, HeartbeatTimeoutKillsAWedgedWorker) {
  RouterOptions opts = fast_options(1);
  opts.heartbeat_period_ms = 10;
  opts.heartbeat_timeout_ms = 60;
  opts.max_respawns = 2;

  std::atomic<std::uint32_t> spawns{0};
  Router rt(opts, [&spawns](std::uint32_t, std::uint32_t) {
    spawns.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<BlackHoleChannel>();
  });

  // Every incarnation wedges; the heartbeat timeout must keep cycling it
  // until the consecutive-respawn budget marks the slot failed.
  EXPECT_TRUE(wait_until(
      [&] {
        const auto w = rt.workers();
        return w[0].state == Router::WorkerState::kFailed;
      },
      10000));
  EXPECT_GE(rt.counters().heartbeats_missed, 1u);
  EXPECT_EQ(spawns.load(), 3u);  // initial + max_respawns

  // With the whole fleet failed, a submit must shed, not hang.
  const CompileResponse resp = rt.handle(tiny_stream(1));
  EXPECT_EQ(resp.status, ResponseStatus::kOverloaded);
  rt.drain();
}

TEST(Router, WorkerSideCachesStayWarmAcrossTheFleet) {
  // The affinity payoff, end to end: repeating a request mix against the
  // fleet must hit exactly one worker's cache per distinct key.
  std::vector<service::CompileService*> services(3, nullptr);
  RouterOptions opts = fast_options(3);
  opts.heartbeat_period_ms = 0;  // heartbeats would pollute worker counters
  Router rt(opts, [&services](std::uint32_t index, std::uint32_t) {
    service::ServiceOptions sopts;
    sopts.workers = 1;
    auto chan = spawn_inprocess_worker(sopts);
    services[index] = chan->service();
    return chan;
  });

  std::vector<CompileRequest> mix;
  for (std::uint64_t i = 0; i < 6; ++i) mix.push_back(heavy_stream(1, i));
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      CompileRequest req = mix[i];
      req.id = static_cast<std::uint64_t>(round) * 100 + i;
      ASSERT_TRUE(rt.handle(std::move(req)).ok());
    }
  }

  std::uint64_t hits = 0, accepted = 0;
  for (service::CompileService* svc : services) {
    ASSERT_NE(svc, nullptr);
    hits += svc->counters().cache_hits;
    accepted += svc->counters().accepted;
  }
  // 18 submits, 6 distinct keys: rounds 2 and 3 are pure cache hits.
  EXPECT_EQ(hits, 12u);
  EXPECT_EQ(accepted + hits, 18u);
  rt.drain();
}

}  // namespace
}  // namespace parmem::router
