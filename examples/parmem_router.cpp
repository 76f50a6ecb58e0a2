// parmem-router — the sharded parmemd fleet behind one framed endpoint.
//
// Speaks exactly parmemd's wire protocol to clients (PMF1 frames,
// request.h payloads) but answers from a supervised fleet of N workers:
// consistent-hash routing on the request's cache key keeps each worker's
// result/atom caches hot on a stable shard of the key space, saturated
// workers spill to their ring successors, crashed workers are respawned
// with bounded jittered backoff while their in-flight requests are
// re-driven — every client request still gets exactly one terminal
// response (src/router/router.h). A worker that fails for good (respawns
// exhausted) is rebalanced: its ring points are retired, its keyspace
// re-homes to the survivors, and for local fleets with --cache-dir its
// result journal is migrated to the new owners' shards.
//
//   parmem-router [options]                stdio mode: frames on stdin/stdout
//   parmem-router --socket PATH [options]  unix-socket mode: sequential
//                                          accept loop over one shared fleet
//
// Options:
//   --fleet N             worker fleet size (default 2)
//   --parmemd PATH        fork/exec PATH as each worker (parmemd stdio
//                         mode); default is an in-process service per worker
//   --tcp HOST:PORT       connect to a remote parmemd --listen-tcp as a
//                         worker instead of spawning one; repeat the flag
//                         (or comma-separate endpoints) for a fleet — the
//                         fleet size is the endpoint count. A "respawn" is
//                         a reconnect with bounded jittered backoff, so a
//                         restarted daemon rejoins with its cache warm.
//                         Excludes --parmemd and --cache-dir (the journals
//                         live with the remote daemons).
//   --cache-dir DIR       per-worker result-cache journals DIR/w<i> — the
//                         shard a worker re-warms from after a respawn
//   --incremental         per-worker atom caches DIR/w<i>.atoms (needs
//                         --cache-dir)
//   --worker-threads N    service threads inside each worker, one compile
//                         each (parmemd --workers; default 1)
//   --queue-cap N         worker admission high watermark (default 64)
//   --inflight-high N     router per-worker in-flight high watermark
//                         (default 32; spill above, resume at half)
//   --deadline-ms N       default deadline inside each worker
//   --heartbeat-ms N      heartbeat period (default 250; 0 disables)
//   --heartbeat-timeout-ms N  silence past an outstanding heartbeat before
//                         the worker is declared dead (default 5000)
//   --max-respawns N      consecutive respawns before a worker slot is
//                         marked failed (default 8)
//   --trace FILE.json     write a Chrome trace-event file on exit
//   --stats               print phase/counter tables on exit (stderr)
//
// SIGTERM / SIGINT (or stdin EOF) drains: admission stops, in-flight
// requests complete (re-driving across any last-moment worker death), the
// fleet is stopped gracefully, exit 0.
//
// Exit codes: 0 clean drain; 1 user error (bad flags / socket path /
// worker binary that never comes up); 2 internal error.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "daemon_shell.h"
#include "router/rebalance.h"
#include "router/router.h"
#include "service/server.h"
#include "support/net.h"

namespace {

using namespace parmem;

int usage() {
  std::fprintf(stderr,
               "usage: parmem-router [--socket PATH] [--fleet N] "
               "[--parmemd PATH] [--tcp HOST:PORT[,HOST:PORT...]] "
               "[--cache-dir DIR] [--incremental] "
               "[--worker-threads N] [--queue-cap N] [--inflight-high N] "
               "[--deadline-ms N] [--heartbeat-ms N] "
               "[--heartbeat-timeout-ms N] [--max-respawns N] "
               "[--trace FILE.json] [--stats]\n");
  return 1;
}

struct FleetConfig {
  std::string parmemd_path;  // empty = in-process workers
  std::string cache_dir;     // per-worker journals under here
  std::vector<support::HostPort> tcp_endpoints;  // remote daemons, by index
  bool incremental = false;
  std::size_t worker_threads = 1;
  std::size_t queue_cap = 64;
  std::uint64_t deadline_ms = 0;
};

std::string worker_cache_dir(const FleetConfig& cfg, std::uint32_t index) {
  if (cfg.cache_dir.empty()) return "";
  // Workers (and their .log files, for process fleets) live under the
  // cache dir; create it up front so --cache-dir works on a fresh path.
  std::error_code ec;
  std::filesystem::create_directories(cfg.cache_dir, ec);
  return cfg.cache_dir + "/w" + std::to_string(index);
}

/// The respawn-stable worker factory: everything derived from the worker
/// *index* only, so incarnation K+1 reopens incarnation K's cache journal
/// and re-warms its shard of the key space.
router::WorkerFactory make_factory(const FleetConfig& cfg) {
  if (!cfg.tcp_endpoints.empty()) {
    // Remote fleet: a "spawn" is a connect, a "respawn" is a reconnect.
    // The endpoint is pinned by index, so a restarted daemon at the same
    // address gets its old shard (and its warm on-disk journal) back.
    return [endpoints = cfg.tcp_endpoints](std::uint32_t index,
                                           std::uint32_t) {
      const support::HostPort& ep = endpoints[index];
      return router::connect_tcp_worker(ep.host, ep.port);
    };
  }
  if (cfg.parmemd_path.empty()) {
    return [cfg](std::uint32_t index, std::uint32_t) {
      service::ServiceOptions opts;
      opts.workers = cfg.worker_threads;
      opts.queue_capacity = cfg.queue_cap;
      opts.default_deadline_ms = cfg.deadline_ms;
      opts.cache_dir = worker_cache_dir(cfg, index);
      if (cfg.incremental && !opts.cache_dir.empty()) {
        opts.incremental = true;
        opts.atom_cache_dir = opts.cache_dir + ".atoms";
      }
      return router::spawn_inprocess_worker(opts);
    };
  }
  return [cfg](std::uint32_t index, std::uint32_t) {
    std::vector<std::string> argv = {cfg.parmemd_path};
    argv.push_back("--workers");
    argv.push_back(std::to_string(cfg.worker_threads));
    argv.push_back("--queue-cap");
    argv.push_back(std::to_string(cfg.queue_cap));
    if (cfg.deadline_ms != 0) {
      argv.push_back("--deadline-ms");
      argv.push_back(std::to_string(cfg.deadline_ms));
    }
    const std::string dir = worker_cache_dir(cfg, index);
    std::string log;
    if (!dir.empty()) {
      argv.push_back("--cache-dir");
      argv.push_back(dir);
      if (cfg.incremental) {
        argv.push_back("--atom-cache");
        argv.push_back(dir + ".atoms");
      }
      log = dir + ".log";  // both incarnations append to one log
    }
    return router::spawn_process_worker(argv, log);
  };
}

void print_router_summary(const router::Router& rt) {
  const auto c = rt.counters();
  std::fprintf(stderr,
               "parmem-router: accepted %llu shed %llu routed %llu "
               "spilled %llu redriven %llu retried %llu failed %llu "
               "completed %llu\n",
               (unsigned long long)c.accepted, (unsigned long long)c.shed,
               (unsigned long long)c.routed, (unsigned long long)c.spilled,
               (unsigned long long)c.redriven, (unsigned long long)c.retried,
               (unsigned long long)c.failed, (unsigned long long)c.completed);
  std::fprintf(stderr,
               "parmem-router: worker-down %llu respawns %llu "
               "spawn-failures %llu heartbeats %llu ok %llu missed %llu "
               "late %llu protocol-errors %llu\n",
               (unsigned long long)c.worker_down,
               (unsigned long long)c.respawns,
               (unsigned long long)c.spawn_failures,
               (unsigned long long)c.heartbeats_sent,
               (unsigned long long)c.heartbeats_ok,
               (unsigned long long)c.heartbeats_missed,
               (unsigned long long)c.late_responses,
               (unsigned long long)c.protocol_errors);
  if (c.rebalanced != 0) {
    std::fprintf(stderr,
                 "parmem-router: rebalanced %llu migrated %llu recycled "
                 "%llu ring-digest %016llx\n",
                 (unsigned long long)c.rebalanced,
                 (unsigned long long)c.migrated_entries,
                 (unsigned long long)c.recycled_workers,
                 (unsigned long long)rt.ring_digest());
  }
  for (const auto& w : rt.workers()) {
    const char* state = w.state == router::Router::WorkerState::kUp ? "up"
                        : w.state == router::Router::WorkerState::kDead
                            ? "dead"
                            : "failed";
    std::fprintf(stderr,
                 "parmem-router: w%u %s incarnation %u routed %llu "
                 "responses %llu\n",
                 w.index, state, w.incarnation, (unsigned long long)w.routed,
                 (unsigned long long)w.responses);
  }
}

int run_router(int argc, char** argv) {
  router::RouterOptions ropts;
  FleetConfig cfg;
  std::string socket_path;
  std::string trace_path;
  bool stats = false;

  for (shell::Args args(argc, argv); args.next();) {
    const std::string& arg = args.flag();
    if (arg == "--socket") {
      socket_path = args.value();
    } else if (arg == "--fleet") {
      ropts.workers = static_cast<std::size_t>(args.count());
    } else if (arg == "--parmemd") {
      cfg.parmemd_path = args.value();
    } else if (arg == "--tcp") {
      // Repeatable, and each value may hold a comma-separated list.
      std::string specs = args.value();
      std::size_t start = 0;
      while (start <= specs.size()) {
        std::size_t comma = specs.find(',', start);
        if (comma == std::string::npos) comma = specs.size();
        const std::string one = specs.substr(start, comma - start);
        if (!one.empty()) {
          cfg.tcp_endpoints.push_back(support::parse_host_port(one));
        }
        start = comma + 1;
      }
    } else if (arg == "--cache-dir") {
      cfg.cache_dir = args.value();
    } else if (arg == "--incremental") {
      cfg.incremental = true;
    } else if (arg == "--worker-threads") {
      cfg.worker_threads = static_cast<std::size_t>(args.count());
    } else if (arg == "--queue-cap") {
      cfg.queue_cap = static_cast<std::size_t>(args.count());
    } else if (arg == "--inflight-high") {
      ropts.inflight_high = static_cast<std::size_t>(args.count());
    } else if (arg == "--deadline-ms") {
      cfg.deadline_ms = args.count();
    } else if (arg == "--heartbeat-ms") {
      ropts.heartbeat_period_ms = args.count();
    } else if (arg == "--heartbeat-timeout-ms") {
      ropts.heartbeat_timeout_ms = args.count();
    } else if (arg == "--max-respawns") {
      ropts.max_respawns = static_cast<std::uint32_t>(args.count());
    } else if (arg == "--trace") {
      trace_path = args.value();
    } else if (arg == "--stats") {
      stats = true;
    } else {
      return usage();
    }
  }
  if (!cfg.tcp_endpoints.empty()) {
    if (!cfg.parmemd_path.empty()) {
      throw support::UserError("--tcp and --parmemd are exclusive");
    }
    if (!cfg.cache_dir.empty()) {
      throw support::UserError(
          "--tcp excludes --cache-dir: journals live with the remote "
          "daemons (give parmemd --cache-dir there)");
    }
    ropts.workers = cfg.tcp_endpoints.size();
  }
  if (ropts.workers == 0) {
    throw support::UserError("--fleet must be at least 1");
  }
  if (cfg.incremental && cfg.cache_dir.empty()) {
    throw support::UserError("--incremental needs --cache-dir");
  }
  // Local fleets with a shared cache root get on-disk shard migration on
  // permanent worker failure; the recycled successors then warm-load the
  // merged journal on respawn.
  if (!cfg.cache_dir.empty()) {
    ropts.shard_migrator = router::cache_dir_migrator(cfg.cache_dir);
  }

  return shell::run(trace_path, stats, [&] {
    const int listen_fd =
        socket_path.empty() ? -1 : support::listen_unix(socket_path);
    router::Router rt(ropts, make_factory(cfg));
    const std::uint64_t served = shell::serve_clients(
        listen_fd, socket_path,
        [&rt](service::CompileRequest req,
              service::CompileService::Callback done) {
          rt.submit(std::move(req), std::move(done));
        });
    rt.drain();
    std::fprintf(stderr, "parmem-router: drained after %llu responses\n",
                 (unsigned long long)served);
    print_router_summary(rt);
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  return parmem::shell::guarded_main([&] { return run_router(argc, argv); });
}
