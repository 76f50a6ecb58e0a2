// Shard rebalancing on permanent worker failure (rebalance.h +
// Router::rebalance_slot): when a slot exhausts its respawn budget, its
// virtual nodes must retire from the live ring (a deterministic,
// digest-pinnable transition), its keyspace must re-home to the survivors,
// and — with a ShardMigrator configured — its on-disk result journal must
// migrate so the successors warm-load it byte-identically.
#include "router/rebalance.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "router/ring.h"
#include "router/router.h"
#include "service/request.h"
#include "service/server.h"
#include "support/file_io.h"
#include "support/rng.h"

namespace parmem::router {
namespace {

namespace fs = std::filesystem;
using service::CompileRequest;
using service::CompileResponse;
using service::RequestKind;
using service::ResponseStatus;

RouterOptions fast_options(std::size_t workers) {
  RouterOptions opts;
  opts.workers = workers;
  opts.supervisor_poll_ms = 2;
  opts.heartbeat_period_ms = 0;  // deaths here are explicit kills
  opts.respawn_base_ms = 5;
  opts.respawn_cap_ms = 50;
  opts.retry.base_backoff_ms = 2;
  opts.retry.max_backoff_ms = 20;
  opts.retry.max_attempts = 6;
  return opts;
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

/// Distinct cacheable keys: same shape, different bodies.
CompileRequest keyed_stream(std::uint64_t id, std::uint64_t salt) {
  support::SplitMix64 rng(salt);
  const std::uint64_t values = 24;
  std::string text = "stream " + std::to_string(values) + "\n";
  for (std::uint64_t t = 0; t < 40; ++t) {
    const std::uint64_t a = rng.below(values);
    const std::uint64_t b = (a + 1 + rng.below(values - 1)) % values;
    text += "tuple " + std::to_string(a) + ' ' + std::to_string(b) + '\n';
  }
  CompileRequest req;
  req.id = id;
  req.kind = RequestKind::kStream;
  req.module_count = 4;
  req.fu_count = 4;
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

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/parmem_rebalance_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string hex_key(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

void touch(const std::string& path, const std::string& bytes = "x") {
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// migrate_result_shard unit coverage.

TEST(MigrateResultShard, MovesEntriesToTheirOwnersAndReportsWarmed) {
  TempDir root;
  const std::string w0 = root.path + "/w0";
  ASSERT_TRUE(support::ensure_directory(w0));
  touch(w0 + "/" + hex_key(0x10) + ".res", "alpha");
  touch(w0 + "/" + hex_key(0x20) + ".res", "beta");
  touch(w0 + "/" + hex_key(0x30) + ".res", "gamma");
  touch(w0 + "/" + hex_key(0x40) + ".atom");   // atom entries never move
  touch(w0 + "/not-a-key.res");                // unparseable: skipped name
  touch(w0 + "/deadbeef.tmp");                 // temp sibling: ignored

  // 0x10 and 0x30 re-home to worker 2, 0x20 to worker 1.
  const OwnerFn owner = [](std::uint64_t key) -> std::optional<std::uint32_t> {
    return key == 0x20 ? 1u : 2u;
  };
  const RebalanceReport r = migrate_result_shard(root.path, 0, owner);
  EXPECT_EQ(r.migrated_entries, 3u);
  EXPECT_EQ(r.skipped_entries, 0u);
  EXPECT_EQ(r.warmed_workers, (std::vector<std::uint32_t>{1, 2}));

  EXPECT_TRUE(fs::exists(root.path + "/w2/" + hex_key(0x10) + ".res"));
  EXPECT_TRUE(fs::exists(root.path + "/w1/" + hex_key(0x20) + ".res"));
  EXPECT_TRUE(fs::exists(root.path + "/w2/" + hex_key(0x30) + ".res"));
  // Payload bytes ride along untouched (rename, not copy).
  const auto moved =
      support::read_file(root.path + "/w2/" + hex_key(0x10) + ".res");
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, "alpha");
  // Non-result files stay put.
  EXPECT_TRUE(fs::exists(w0 + "/" + hex_key(0x40) + ".atom"));
  EXPECT_TRUE(fs::exists(w0 + "/not-a-key.res"));
  EXPECT_TRUE(fs::exists(w0 + "/deadbeef.tmp"));
}

TEST(MigrateResultShard, UnknownOwnersAndSelfOwnersAreSkipped) {
  TempDir root;
  const std::string w3 = root.path + "/w3";
  ASSERT_TRUE(support::ensure_directory(w3));
  touch(w3 + "/" + hex_key(1) + ".res");
  touch(w3 + "/" + hex_key(2) + ".res");
  const OwnerFn owner = [](std::uint64_t key) -> std::optional<std::uint32_t> {
    if (key == 1) return std::nullopt;  // ring empty for this key
    return 3u;                          // still maps to the failed slot
  };
  const RebalanceReport r = migrate_result_shard(root.path, 3, owner);
  EXPECT_EQ(r.migrated_entries, 0u);
  EXPECT_EQ(r.skipped_entries, 2u);
  EXPECT_TRUE(r.warmed_workers.empty());
  EXPECT_TRUE(fs::exists(w3 + "/" + hex_key(1) + ".res"));
  EXPECT_TRUE(fs::exists(w3 + "/" + hex_key(2) + ".res"));
}

TEST(MigrateResultShard, MissingSourceDirectoryIsANoOp) {
  TempDir root;
  const RebalanceReport r = migrate_result_shard(
      root.path, 7, [](std::uint64_t) { return std::uint32_t{0}; });
  EXPECT_EQ(r.migrated_entries, 0u);
  EXPECT_EQ(r.skipped_entries, 0u);
}

// ---------------------------------------------------------------------------
// Router-driven rebalance.

/// Factory that serves in-process workers but permanently refuses to
/// respawn `broken` once `break_after_incarnation` is passed — the shape of
/// a host that is gone for good.
WorkerFactory breakable_factory(std::uint32_t broken,
                                std::vector<service::CompileService*>* out =
                                    nullptr,
                                std::mutex* out_mu = nullptr,
                                const std::string& cache_root = "") {
  return [broken, out, out_mu, cache_root](std::uint32_t index,
                                           std::uint32_t incarnation) {
    if (index == broken && incarnation > 0) {
      throw support::UserError("host is gone");
    }
    service::ServiceOptions sopts;
    sopts.workers = 1;
    sopts.queue_capacity = 128;
    if (!cache_root.empty()) {
      sopts.cache_dir = cache_root + "/w" + std::to_string(index);
    }
    auto chan = spawn_inprocess_worker(sopts);
    if (out != nullptr) {
      std::lock_guard<std::mutex> lk(*out_mu);
      (*out)[index] = chan->service();
    }
    return chan;
  };
}

TEST(Rebalance, PermanentFailureRetiresTheSlotFromTheRing) {
  RouterOptions opts = fast_options(3);
  opts.max_respawns = 1;
  Router rt(opts, breakable_factory(/*broken=*/1));

  const std::uint64_t digest_before = rt.ring_digest();
  EXPECT_EQ(rt.ring_workers(), (std::vector<std::uint32_t>{0, 1, 2}));

  rt.kill_worker(1);
  ASSERT_TRUE(wait_until([&] { return rt.counters().rebalanced == 1; },
                         10000));
  EXPECT_EQ(rt.workers()[1].state, Router::WorkerState::kFailed);
  EXPECT_EQ(rt.ring_workers(), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_NE(rt.ring_digest(), digest_before);

  // Every key now maps to a survivor, and requests are served by them as
  // ring primaries (not spills).
  for (std::uint64_t salt = 0; salt < 8; ++salt) {
    const CompileRequest probe = keyed_stream(100 + salt, 0xA110 + salt);
    const auto owner = rt.owner_of(service::cache_key(probe));
    ASSERT_TRUE(owner.has_value());
    EXPECT_NE(*owner, 1u);
    EXPECT_TRUE(rt.handle(probe).ok());
  }
  const auto c = rt.counters();
  EXPECT_EQ(c.rebalanced, 1u);
  EXPECT_EQ(c.spilled, 0u) << "post-rebalance owners must be primaries";
  rt.drain();
}

TEST(Rebalance, RingTransitionIsDeterministicAndMatchesAFreshRing) {
  // The post-retirement assignment must be a pure function of the
  // surviving member set: two independently failed routers agree with each
  // other and with a ring constructed directly over the survivors.
  const auto run_one = [] {
    RouterOptions opts = fast_options(3);
    opts.max_respawns = 1;
    Router rt(opts, breakable_factory(/*broken=*/1));
    rt.kill_worker(1);
    EXPECT_TRUE(wait_until([&] { return rt.counters().rebalanced == 1; },
                           10000));
    const std::uint64_t digest = rt.ring_digest();
    rt.drain();
    return digest;
  };
  const std::uint64_t a = run_one();
  const std::uint64_t b = run_one();
  EXPECT_EQ(a, b);

  HashRing survivors(3, kDefaultVirtualNodes);
  survivors.remove_worker(1);
  std::string owners;
  owners.reserve(4096);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const auto owner = survivors.owner(key);
    owners.push_back(owner.has_value() ? static_cast<char>(*owner) : '\xff');
  }
  EXPECT_EQ(a, service::fnv1a64(owners));
}

TEST(Rebalance, JournalMigratesAndSuccessorsWarmLoadByteIdentically) {
  TempDir root;
  std::vector<service::CompileService*> services(3, nullptr);
  std::mutex services_mu;
  RouterOptions opts = fast_options(3);
  opts.max_respawns = 1;
  opts.shard_migrator = cache_dir_migrator(root.path);
  Router rt(opts, breakable_factory(/*broken=*/2, &services, &services_mu,
                                    root.path));

  // Compile a spread of keys until a few land on the doomed worker, so its
  // journal has entries worth migrating. Baselines pin byte identity.
  std::vector<CompileRequest> victim_keys;
  std::vector<std::string> baselines;
  for (std::uint64_t salt = 0; victim_keys.size() < 3 && salt < 64; ++salt) {
    CompileRequest req = keyed_stream(1 + salt, 0xBEEF00 + salt);
    const CompileResponse resp = rt.handle(req);
    ASSERT_TRUE(resp.ok()) << resp.diagnostic;
    if (*rt.owner_of(service::cache_key(req)) == 2u) {
      victim_keys.push_back(req);
      baselines.push_back(resp.body);
    }
  }
  ASSERT_GE(victim_keys.size(), 1u) << "no keys hashed to the victim";

  // Survivor incarnations before the kill: a recycled survivor counts as
  // respawned only once a newer incarnation is up. (Its old incarnation
  // still reads as alive until the death sweep notices the kill.)
  const std::vector<Router::WorkerInfo> before = rt.workers();
  rt.kill_worker(2);
  ASSERT_TRUE(wait_until([&] { return rt.counters().rebalanced == 1; },
                         10000));
  // The journal moved, and at least one survivor was recycled to load it.
  ASSERT_TRUE(wait_until(
      [&] {
        const auto c = rt.counters();
        return c.migrated_entries >= victim_keys.size() &&
               c.recycled_workers >= 1;
      },
      10000));
  // Wait out the recycled survivors' respawns: every recycled survivor is
  // up again under a new incarnation.
  const std::uint64_t recycled = rt.counters().recycled_workers;
  ASSERT_TRUE(wait_until(
      [&] {
        std::uint64_t respawned = 0;
        std::size_t up = 0;
        for (const Router::WorkerInfo& w : rt.workers()) {
          if (w.index == 2 || w.state != Router::WorkerState::kUp) continue;
          ++up;
          if (w.incarnation > before[w.index].incarnation) ++respawned;
        }
        return up == 2 && respawned >= recycled;
      },
      10000));

  // The migrated keys are served by their new owners from the warm-loaded
  // journal: byte-identical bytes, cache hits, no recompute.
  for (std::size_t i = 0; i < victim_keys.size(); ++i) {
    CompileRequest again = victim_keys[i];
    again.id = 500 + i;
    const std::uint32_t new_owner =
        *rt.owner_of(service::cache_key(again));
    ASSERT_NE(new_owner, 2u);
    const CompileResponse resp = rt.handle(std::move(again));
    ASSERT_TRUE(resp.ok()) << resp.diagnostic;
    EXPECT_EQ(resp.body, baselines[i]) << "migrated key " << i
                                       << " not byte-identical";
    std::lock_guard<std::mutex> lk(services_mu);
    ASSERT_NE(services[new_owner], nullptr);
    EXPECT_GE(services[new_owner]->cache().stats().loaded, 1u)
        << "new owner did not warm-load the merged journal";
  }
  // On-disk: the victim's migrated entries now live in survivor shards.
  for (const CompileRequest& req : victim_keys) {
    const std::string name = hex_key(service::cache_key(req)) + ".res";
    EXPECT_FALSE(fs::exists(root.path + "/w2/" + name));
  }
  rt.drain();
}

TEST(Rebalance, MigratorFailureIsContainedRoutingStillMoves) {
  RouterOptions opts = fast_options(2);
  opts.max_respawns = 1;
  opts.shard_migrator = [](std::uint32_t, const OwnerFn&) -> RebalanceReport {
    throw support::UserError("disk on fire");
  };
  Router rt(opts, breakable_factory(/*broken=*/0));
  rt.kill_worker(0);
  ASSERT_TRUE(wait_until([&] { return rt.counters().rebalanced == 1; },
                         10000));
  // Keyspace still re-homed; requests still served.
  EXPECT_EQ(rt.ring_workers(), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(rt.handle(tiny_stream(1)).ok());
  EXPECT_EQ(rt.counters().migrated_entries, 0u);
  rt.drain();
}

}  // namespace
}  // namespace parmem::router
