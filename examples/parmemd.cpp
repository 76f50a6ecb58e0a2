// parmemd — the compile service as a long-running daemon.
//
// Reads length-framed compile requests (frame.h / request.h) and writes
// framed responses; the compile work runs on the service's worker pool with
// admission control, retry/backoff, watchdog cancellation and a crash-safe
// result cache behind it (src/service/server.h).
//
//   parmemd [options]                 stdio mode: frames on stdin/stdout
//   parmemd --socket PATH [options]   unix-socket mode: sequential accept
//                                     loop, one client served at a time
//   parmemd --listen-tcp HOST:PORT    TCP mode: same sequential accept loop
//                                     over the network (parmem_router --tcp
//                                     connects here). Port 0 binds an
//                                     ephemeral port; the bound address is
//                                     printed to stderr as
//                                     "parmemd: listening on HOST:PORT".
//                                     The daemon outlives its connections:
//                                     a router reconnecting after a network
//                                     fault finds the same warm service.
//   parmemd --soak SECONDS [options]  in-process chaos soak (the CI job):
//                                     mixed valid/malformed requests with
//                                     random deadlines; exits non-zero if
//                                     any request is lost or a warm restart
//                                     re-serves different bytes
//
// Options:
//   --cache-dir DIR         persistent result-cache journal (default: none)
//   --cache-max-entries N   LRU cap on result-cache entries (default 0 =
//                           unbounded; evicted journal files are unlinked)
//   --incremental           incremental recompilation: reuse the journaled
//                           clique-separator decomposition of a conflict
//                           graph of unchanged structure (byte-identical
//                           output, DESIGN.md §13)
//   --atom-cache DIR        persistent atom-cache journal (implies
//                           --incremental; default: in-memory)
//   --atom-cache-max N      LRU cap on atom-cache entries (default 0)
//   --workers N             service worker threads, one compile each
//                           (default 2)
//   --queue-cap N           admission high watermark (default 64)
//   --deadline-ms N         default deadline for requests without one
//   --grace-ms N            watchdog grace past the deadline (default 50)
//   --seed S                soak-mode request mix seed
//   --trace FILE.json       write a Chrome trace-event file on exit
//   --stats                 print phase/counter tables on exit (stderr)
//
// SIGTERM / SIGINT (or stdin EOF) starts a graceful drain: admission stops,
// queued and in-flight requests still get their terminal responses, the
// cache journal is already durable (every store was an atomic rename), then
// the daemon exits 0.
//
// Exit codes: 0 clean drain; 1 user error (bad flags / socket path);
// 2 internal error; 4 soak failure (lost request or warm-restart mismatch).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/frame.h"
#include "service/request.h"
#include "service/server.h"
#include "support/net.h"
#include "support/rng.h"
#include "telemetry/export.h"
#include "telemetry/session.h"
#include "workloads/workloads.h"

#if PARMEM_FAULT_INJECTION_ENABLED
#include "support/fault_injection.h"
#endif

namespace {

using namespace parmem;

int g_signal_pipe[2] = {-1, -1};

void on_shutdown_signal(int) {
  const char byte = 1;
  // Best effort: the self-pipe is non-blocking and one byte is enough.
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

void install_signal_pipe() {
  if (::pipe(g_signal_pipe) != 0) {
    throw support::UserError("cannot create the signal self-pipe");
  }
  ::fcntl(g_signal_pipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(g_signal_pipe[1], F_SETFL, O_NONBLOCK);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_shutdown_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

int usage() {
  std::fprintf(stderr,
               "usage: parmemd [--socket PATH | --listen-tcp HOST:PORT | "
               "--soak SECONDS] "
               "[--cache-dir DIR] [--cache-max-entries N] [--incremental] "
               "[--atom-cache DIR] [--atom-cache-max N] [--workers N] "
               "[--queue-cap N] [--deadline-ms N] [--grace-ms N] "
               "[--seed S] [--trace FILE.json] "
               "[--stats]\n");
  return 1;
}

void print_service_summary(service::CompileService& svc) {
  const auto c = svc.counters();
  const auto cs = svc.cache().stats();
  std::fprintf(stderr,
               "parmemd: accepted %llu shed %llu cache-hit %llu retried %llu "
               "escalated %llu cancelled %llu watchdog %llu completed %llu\n",
               (unsigned long long)c.accepted, (unsigned long long)c.shed,
               (unsigned long long)c.cache_hits, (unsigned long long)c.retried,
               (unsigned long long)c.escalated, (unsigned long long)c.cancelled,
               (unsigned long long)c.watchdog_fired,
               (unsigned long long)c.completed);
  std::fprintf(stderr,
               "parmemd: cache hits %llu misses %llu stores %llu "
               "store-errors %llu loaded %llu load-errors %llu "
               "evicted %llu\n",
               (unsigned long long)cs.hits, (unsigned long long)cs.misses,
               (unsigned long long)cs.stores,
               (unsigned long long)cs.store_errors,
               (unsigned long long)cs.loaded,
               (unsigned long long)cs.load_errors,
               (unsigned long long)cs.evicted);
  if (svc.atom_cache() != nullptr) {
    const auto as = svc.atom_cache()->stats();
    std::fprintf(stderr,
                 "parmemd: atom-cache hits %llu misses %llu stores %llu "
                 "store-errors %llu loaded %llu load-errors %llu "
                 "evicted %llu\n",
                 (unsigned long long)as.hits, (unsigned long long)as.misses,
                 (unsigned long long)as.stores,
                 (unsigned long long)as.store_errors,
                 (unsigned long long)as.loaded,
                 (unsigned long long)as.load_errors,
                 (unsigned long long)as.evicted);
  }
}

int run_stdio(const service::ServiceOptions& opts) {
  service::FdStream stream(STDIN_FILENO, STDOUT_FILENO, g_signal_pipe[0]);
  service::CompileService svc(opts);
  const std::uint64_t served = service::serve(stream, svc);
  svc.drain();
  std::fprintf(stderr, "parmemd: drained after %llu responses\n",
               (unsigned long long)served);
  print_service_summary(svc);
  return 0;
}

int run_socket(const std::string& path, const service::ServiceOptions& opts) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw support::UserError("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw support::UserError("cannot create socket");
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd, 8) != 0) {
    ::close(listen_fd);
    throw support::UserError("cannot bind/listen on " + path);
  }

  service::CompileService svc(opts);
  std::uint64_t served = 0;
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // SIGTERM/SIGINT
    if ((fds[0].revents & POLLIN) == 0) continue;
    // accept_with_retry rides out EINTR and transient fd/memory
    // exhaustion (bounded backoff, connections wait in the backlog)
    // instead of dropping the connection — or worse, exiting the loop —
    // on the first blip.
    const int conn = support::accept_with_retry(listen_fd);
    if (conn < 0) continue;
    service::FdStream stream(conn, conn, g_signal_pipe[0]);
    served += service::serve(stream, svc);
    ::close(conn);
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  svc.drain();
  std::fprintf(stderr, "parmemd: drained after %llu responses\n",
               (unsigned long long)served);
  print_service_summary(svc);
  return 0;
}

int run_tcp(const std::string& spec, const service::ServiceOptions& opts) {
  const support::HostPort hp = support::parse_host_port(spec);
  std::uint16_t port = hp.port;
  const int listen_fd = support::listen_tcp(hp.host, hp.port, &port);
  // The bound address line is load-bearing: with port 0 it is the only way
  // a supervisor (or the network-chaos harness) learns where to connect.
  std::fprintf(stderr, "parmemd: listening on %s:%u\n", hp.host.c_str(),
               static_cast<unsigned>(port));
  std::fflush(stderr);

  service::CompileService svc(opts);
  std::uint64_t served = 0;
  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // SIGTERM/SIGINT
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = support::accept_with_retry(listen_fd);
    if (conn < 0) continue;
    support::set_tcp_nodelay(conn);
    service::FdStream stream(conn, conn, g_signal_pipe[0]);
    // One client at a time, like the unix loop: the router holds a single
    // connection per worker. A dropped connection ends this serve() and
    // the next accept finds the same warm service.
    served += service::serve(stream, svc);
    ::close(conn);
  }
  ::close(listen_fd);
  svc.drain();
  std::fprintf(stderr, "parmemd: drained after %llu responses\n",
               (unsigned long long)served);
  print_service_summary(svc);
  return 0;
}

// ---------------------------------------------------------------------------
// Chaos soak (the CI job's workload).

std::string synth_stream_source(support::SplitMix64& rng) {
  const std::uint64_t values = 6 + rng.below(20);
  std::string text = "stream " + std::to_string(values) + "\n";
  const std::uint64_t tuples = 4 + rng.below(12);
  for (std::uint64_t t = 0; t < tuples; ++t) {
    const std::uint64_t width = 2 + rng.below(2);
    const std::uint64_t start = rng.below(values);
    text += "tuple";
    for (std::uint64_t i = 0; i < width; ++i) {
      text += ' ' + std::to_string((start + i) % values);
    }
    text += '\n';
  }
  return text;
}

std::string malformed_source(support::SplitMix64& rng) {
  static const char* kBad[] = {
      "",                                  // empty program
      "func main( {",                      // MC syntax error
      "stream nope\n",                     // bad stream header
      "stream 4\ntuple 0 99\n",            // value id out of range
      "stream 4294967295\ntuple 0 1\n",    // above the admission cap
      "tuple 0 1\n",                       // stream body without header
  };
  return kBad[rng.below(sizeof kBad / sizeof kBad[0])];
}

int run_soak(service::ServiceOptions opts, std::uint64_t seconds,
             std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  support::SplitMix64 rng(seed);
  const auto& workloads = workloads::all_workloads();

  // Edit-loop corpus: evolving stream sources that accumulate one-tuple
  // edits across the soak. With --incremental this is the workload the
  // atom cache exists for — successive compiles of a slightly-edited
  // program — and the from-scratch identity check at the end holds the
  // reused decompositions to byte-identity.
  struct Evolving {
    std::uint64_t values;
    std::string text;
  };
  std::vector<Evolving> evolving;
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t values = 48 + rng.below(32);
    std::string text = "stream " + std::to_string(values) + "\n";
    for (std::uint64_t t = 0; t < 40; ++t) {
      const std::uint64_t start = rng.below(values);
      text += "tuple " + std::to_string(start) + ' ' +
              std::to_string((start + 1) % values) + '\n';
    }
    evolving.push_back({values, std::move(text)});
  }
  const auto edited_stream_source = [&]() -> std::string {
    Evolving& e = evolving[rng.below(evolving.size())];
    const std::uint64_t start = rng.below(e.values);
    e.text += "tuple " + std::to_string(start) + ' ' +
              std::to_string((start + 1) % e.values) + '\n';
    return e.text;
  };

  struct OkSample {
    service::CompileRequest req;
    std::string payload;
  };
  std::mutex sample_mu;
  std::vector<OkSample> samples;
  std::atomic<std::uint64_t> responded{0};
  std::atomic<std::uint64_t> status_counts[6] = {};

  std::uint64_t submitted = 0;
  std::uint64_t lost = 0;
  {
    service::CompileService svc(opts);
    const auto t_end = Clock::now() + std::chrono::seconds(seconds);
    std::uint64_t next_id = 1;
    while (Clock::now() < t_end) {
      // Submit in bursts so the queue actually fills and admission sheds.
      const std::uint64_t burst = 1 + rng.below(8);
      for (std::uint64_t b = 0; b < burst; ++b) {
#if PARMEM_FAULT_INJECTION_ENABLED
        if (rng.below(16) == 0) {
          static const support::FaultKind kKinds[] = {
              support::FaultKind::kTimeout, support::FaultKind::kBadAlloc,
              support::FaultKind::kInternalError};
          static const char* kSites[] = {"service.worker", "service.admit",
                                         "service.cache_store",
                                         "pipeline.assign",
                                         "cache.atom_journal"};
          const std::uint64_t hit = 1 + rng.below(3);
          const support::FaultKind kind = kKinds[rng.below(3)];
          const char* site = kSites[rng.below(5)];
          support::FaultInjector::instance().arm(site, kind, hit);
        }
#endif
        service::CompileRequest req;
        req.id = next_id++;
        const std::uint64_t roll = rng.below(100);
        if (roll < 55) {
          req.kind = service::RequestKind::kMc;
          req.body = workloads[rng.below(workloads.size())].source;
        } else if (roll < 80) {
          req.kind = service::RequestKind::kStream;
          // Half the stream traffic walks the edit loop (append one tuple,
          // recompile) instead of being freshly random.
          req.body = rng.below(2) == 0 ? edited_stream_source()
                                       : synth_stream_source(rng);
        } else {
          req.kind = rng.below(2) == 0 ? service::RequestKind::kMc
                                       : service::RequestKind::kStream;
          req.body = malformed_source(rng);
        }
        req.module_count = 4 + 4 * rng.below(3);  // 4, 8 or 12
        if (rng.below(100) < 30) req.deadline_ms = 1 + rng.below(30);
        if (rng.below(100) < 10) req.max_steps = 500 + rng.below(5000);

        const service::CompileRequest copy = req;
        ++submitted;
        svc.submit(std::move(req), [&, copy](
                                       const service::CompileResponse& resp) {
          responded.fetch_add(1, std::memory_order_relaxed);
          status_counts[static_cast<std::size_t>(resp.status)].fetch_add(
              1, std::memory_order_relaxed);
          // Deadline-free full-effort successes recompile deterministically,
          // so they are the warm-restart byte-identity probes.
          if (resp.status == service::ResponseStatus::kOk &&
              copy.deadline_ms == 0) {
            std::lock_guard<std::mutex> lk(sample_mu);
            if (samples.size() < 32) {
              samples.push_back({copy, service::format_response(resp)});
            }
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng.below(3)));
    }
    svc.drain();
#if PARMEM_FAULT_INJECTION_ENABLED
    support::FaultInjector::instance().reset();
#endif
    lost = submitted - responded.load();
    std::fprintf(stderr, "parmemd soak: %llu submitted, %llu responded",
                 (unsigned long long)submitted,
                 (unsigned long long)responded.load());
    static const char* kNames[] = {"ok",         "degraded",   "user-error",
                                   "internal",   "overloaded", "cancelled"};
    for (std::size_t s = 0; s < 6; ++s) {
      std::fprintf(stderr, ", %s %llu", kNames[s],
                   (unsigned long long)status_counts[s].load());
    }
    std::fprintf(stderr, "\n");
    print_service_summary(svc);
  }

  // Warm restart: a fresh service over the same journal must re-serve the
  // sampled responses byte-for-byte, from cache.
  std::uint64_t warm_checked = 0, warm_mismatch = 0;
  if (!opts.cache_dir.empty() && !samples.empty()) {
    service::CompileService warm(opts);
    for (const OkSample& s : samples) {
      const service::CompileResponse resp = warm.handle(s.req);
      ++warm_checked;
      if (service::format_response(resp) != s.payload) ++warm_mismatch;
    }
    const auto wc = warm.counters();
    std::fprintf(stderr,
                 "parmemd soak: warm restart checked %llu responses, "
                 "%llu mismatched, %llu served from cache (%llu loaded)\n",
                 (unsigned long long)warm_checked,
                 (unsigned long long)warm_mismatch,
                 (unsigned long long)wc.cache_hits,
                 (unsigned long long)warm.cache().stats().loaded);
    warm.drain();
  }

  // With incremental on, sampled responses may have been compiled from
  // reused decompositions; recompile them on a cacheless, non-incremental
  // service and demand the same bytes — the memo's identity invariant,
  // end to end.
  std::uint64_t scratch_checked = 0, scratch_mismatch = 0;
  if (opts.incremental && !samples.empty()) {
    service::ServiceOptions scratch_opts = opts;
    scratch_opts.incremental = false;
    scratch_opts.cache_dir.clear();
    scratch_opts.atom_cache_dir.clear();
    service::CompileService scratch(scratch_opts);
    for (const OkSample& s : samples) {
      const service::CompileResponse resp = scratch.handle(s.req);
      ++scratch_checked;
      if (service::format_response(resp) != s.payload) ++scratch_mismatch;
    }
    scratch.drain();
    std::fprintf(stderr,
                 "parmemd soak: incremental-vs-scratch checked %llu "
                 "responses, %llu mismatched\n",
                 (unsigned long long)scratch_checked,
                 (unsigned long long)scratch_mismatch);
  }

  if (lost != 0 || warm_mismatch != 0 || scratch_mismatch != 0) {
    std::fprintf(stderr,
                 "parmemd soak: FAILED — %llu lost requests, %llu "
                 "warm-restart mismatches, %llu incremental-vs-scratch "
                 "mismatches\n",
                 (unsigned long long)lost, (unsigned long long)warm_mismatch,
                 (unsigned long long)scratch_mismatch);
    return 4;
  }
  std::fprintf(stderr, "parmemd soak: OK\n");
  return 0;
}

int run_parmemd(int argc, char** argv) {
  service::ServiceOptions opts;
  std::string socket_path;
  std::string tcp_spec;
  std::uint64_t soak_seconds = 0;
  std::uint64_t seed = 0x5eedULL;
  std::string trace_path;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw support::UserError("missing value after " + arg);
      }
      return argv[++i];
    };
    const auto next_count = [&]() -> std::uint64_t {
      const char* text = next();
      try {
        return std::stoull(text);
      } catch (const std::exception&) {
        throw support::UserError("invalid number for " + arg + ": '" +
                                 std::string(text) + "'");
      }
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--listen-tcp") {
      tcp_spec = next();
    } else if (arg == "--soak") {
      soak_seconds = next_count();
    } else if (arg == "--cache-dir") {
      opts.cache_dir = next();
    } else if (arg == "--cache-max-entries") {
      opts.cache_max_entries = static_cast<std::size_t>(next_count());
    } else if (arg == "--incremental") {
      opts.incremental = true;
    } else if (arg == "--atom-cache") {
      opts.atom_cache_dir = next();
      opts.incremental = true;
    } else if (arg == "--atom-cache-max") {
      opts.atom_cache_max_entries = static_cast<std::size_t>(next_count());
    } else if (arg == "--workers") {
      opts.workers = static_cast<std::size_t>(next_count());
    } else if (arg == "--queue-cap") {
      opts.queue_capacity = static_cast<std::size_t>(next_count());
    } else if (arg == "--deadline-ms") {
      opts.default_deadline_ms = next_count();
    } else if (arg == "--grace-ms") {
      opts.watchdog_grace_ms = next_count();
    } else if (arg == "--seed") {
      seed = next_count();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--stats") {
      stats = true;
    } else {
      return usage();
    }
  }
  // --socket, --listen-tcp and --soak are mutually exclusive modes.
  if ((!socket_path.empty()) + (!tcp_spec.empty()) + (soak_seconds != 0) > 1) {
    return usage();
  }

  install_signal_pipe();

  const bool telemetry_requested = !trace_path.empty() || stats;
  if (telemetry_requested) {
    if (!telemetry::kEnabled) {
      std::fprintf(stderr,
                   "warning: built with -DPARMEM_TELEMETRY=OFF — the trace "
                   "and stats will be empty\n");
    }
    telemetry::TraceSession::global().start();
  }

  int rc = 0;
  if (soak_seconds != 0) {
    rc = run_soak(opts, soak_seconds, seed);
  } else if (!socket_path.empty()) {
    rc = run_socket(socket_path, opts);
  } else if (!tcp_spec.empty()) {
    rc = run_tcp(tcp_spec, opts);
  } else {
    rc = run_stdio(opts);
  }

  if (telemetry_requested) {
    telemetry::TraceSession::global().stop();
    const auto lanes = telemetry::TraceSession::global().take();
    if (!trace_path.empty()) {
      if (!telemetry::write_chrome_trace(
              trace_path, lanes, telemetry::TraceSession::global().start_ns())) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 2;
      }
      std::fprintf(stderr, "trace written to %s (%zu lanes)\n",
                   trace_path.c_str(), lanes.size());
    }
    if (stats) {
      std::fprintf(stderr, "%s\n", telemetry::phase_summary(lanes).c_str());
      std::fprintf(stderr, "%s",
                   telemetry::counters_table(
                       telemetry::Registry::instance().snapshot())
                       .c_str());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_parmemd(argc, argv);
  } catch (const parmem::support::UserError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 2;
  }
}
