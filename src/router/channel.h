// Worker channels: the router's transport + lifecycle handle for one
// parmemd-compatible worker.
//
// A channel is a full-duplex framed byte stream (service/frame.h over one
// end of a socketpair) plus the three lifecycle operations supervision
// needs: stop_input (graceful — the worker sees EOF, drains, and exits),
// kill (crash hammer — the socket is slammed shut and, for a process
// worker, the child is SIGKILLed), and join (reap). Two implementations:
//
//   * spawn_process_worker — fork/execs a parmemd binary with the worker
//     end of the socketpair as its stdin/stdout (parmemd's stdio mode is
//     exactly this protocol), stderr appended to a per-worker log file.
//     This is the production shape and what the chaos CI job SIGKILLs.
//   * spawn_inprocess_worker — a CompileService + service::serve loop on a
//     std::thread behind the same socketpair. No binary path, no fork: the
//     unit tests' and default bench backend. kill() shuts the socket down
//     hard, which is indistinguishable on the wire from a crashed process.
//
// The router never learns which kind it holds — respawn is "make another
// channel with the same worker index", which is also what keeps cache
// affinity: a respawned worker reuses its per-index journal directory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/frame.h"
#include "service/server.h"

namespace parmem::router {

class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;

  /// The framed duplex stream to the worker. Valid until the channel is
  /// destroyed; reads unblock with EOF after kill().
  virtual service::ByteStream& stream() = 0;

  /// Graceful stop: half-closes the worker's input so it drains queued
  /// work, writes its remaining responses, and exits.
  virtual void stop_input() = 0;

  /// Hard kill: slams the socket shut (and SIGKILLs a process worker).
  /// Pending reads on stream() unblock; in-flight work is lost.
  virtual void kill() = 0;

  /// Reaps the worker. Returns true when it exited cleanly (exit code 0 /
  /// serve loop returned); false after a kill or crash.
  virtual bool join() = 0;

  /// The in-process worker's service, or nullptr for a process worker.
  /// Tests use it to assert on worker-side cache/counter state.
  virtual service::CompileService* service() { return nullptr; }
};

/// Makes a channel for worker `index`, incarnation `incarnation` (0 for
/// the first spawn, bumped per respawn). The factory pins everything that
/// must survive a respawn — binary path, per-index cache directory.
using WorkerFactory = std::function<std::unique_ptr<WorkerChannel>(
    std::uint32_t index, std::uint32_t incarnation)>;

/// Tuning for the TCP channel's connect loop. A "spawn" of a TCP worker is
/// a connect: the factory retries refused/timed-out connects with bounded
/// jittered backoff before giving up, and the router's respawn supervision
/// forms the outer reconnect loop on top (so a remote daemon restart is
/// ridden out by exactly the machinery that rides out a local crash).
struct TcpChannelOptions {
  /// Wall-clock budget for one connect attempt.
  std::uint64_t connect_timeout_ms = 2000;
  /// Connect attempts per spawn before the factory fails (>= 1).
  std::uint32_t connect_attempts = 4;
  /// Jittered backoff between attempts (support::backoff_with_jitter_ms,
  /// seeded by the endpoint so distinct workers decorrelate).
  std::uint64_t connect_backoff_base_ms = 20;
  std::uint64_t connect_backoff_cap_ms = 500;
};

/// Connects to a parmemd-compatible daemon at host:port (parmemd
/// --listen-tcp) and wraps the connection as a WorkerChannel. The wire
/// protocol is identical to the socketpair channels — PMF1 frames — so
/// heartbeats, torn-frame detection, and death-sweep re-drive work
/// unchanged over the network. kill() slams the socket shut (the remote
/// daemon survives and the next incarnation reconnects to a warm cache);
/// join() reports clean unless the channel was killed. Throws
/// support::UserError when every connect attempt fails.
std::unique_ptr<WorkerChannel> connect_tcp_worker(
    const std::string& host, std::uint16_t port,
    const TcpChannelOptions& opts = {});

/// An in-process TCP endpoint serving the compile protocol — the
/// test/bench stand-in for a remote parmemd --listen-tcp. It runs
/// parmemd's own accept loop, service::serve_connections, on a thread, so
/// the tests and service_load --tcp exercise the daemon's loop itself. One
/// CompileService persists across connections (reconnects find a warm
/// in-memory cache, like a real daemon); connections are served one at a
/// time. Port 0 binds an ephemeral port; a fixed port lets a chaos harness
/// "restart the daemon" at the address the router keeps reconnecting to.
class TcpServerHandle {
 public:
  virtual ~TcpServerHandle() = default;
  virtual std::uint16_t port() const = 0;
  virtual service::CompileService* service() = 0;
  /// Forcibly drops the currently served connection (a mid-request cable
  /// pull). The server keeps accepting; a reconnect succeeds.
  virtual void drop_connection() = 0;
  /// Stops accepting and drops any live connection for good — the SIGKILL
  /// analogue for an in-process endpoint. Idempotent.
  virtual void stop() = 0;
};

std::unique_ptr<TcpServerHandle> serve_tcp_inprocess(
    const service::ServiceOptions& opts,
    const std::string& host = "127.0.0.1", std::uint16_t port = 0);

/// fork/execs `argv` (argv[0] is the parmemd binary path) with the worker
/// end of a socketpair as stdin/stdout. When `stderr_path` is non-empty the
/// child's stderr is appended there (both incarnations of a respawned
/// worker share one log). Throws support::UserError when the spawn fails.
std::unique_ptr<WorkerChannel> spawn_process_worker(
    const std::vector<std::string>& argv, const std::string& stderr_path = "");

/// A CompileService + serve loop on a thread behind a socketpair.
std::unique_ptr<WorkerChannel> spawn_inprocess_worker(
    const service::ServiceOptions& opts);

}  // namespace parmem::router
