// Socket helpers for the daemons' listeners and the cross-host fleet
// transport.
//
// Everything here is a thin, errno-careful wrapper over the BSD socket
// calls the router and the daemons share: resolve-and-connect with a wall
// clock timeout, listen on TCP with SO_REUSEADDR or on a unix socket path,
// and an accept that classifies errno instead of treating every failure as
// fatal. The framing above these fds is unchanged (service/frame.h PMF1) —
// a TCP worker speaks exactly the byte protocol a socketpair worker speaks,
// which is what lets the router's supervision (heartbeats, torn-frame
// detection, re-drive) work identically over the network.
#pragma once

#include <cstdint>
#include <string>

namespace parmem::support {

/// A parsed "host:port" endpoint.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port". The host part may not be empty and the port must be
/// a decimal integer in [0, 65535] (0 is permitted: listeners interpret it
/// as "pick an ephemeral port"). Throws UserError on malformed input.
HostPort parse_host_port(const std::string& spec);

/// Creates a listening TCP socket bound to host:port (CLOEXEC,
/// SO_REUSEADDR). With port 0 the kernel picks an ephemeral port; the
/// actually bound port is stored through `bound_port` when non-null.
/// Returns the listening fd. Throws UserError when resolution, bind, or
/// listen fails.
int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port = nullptr, int backlog = 16);

/// Creates a listening unix-domain stream socket at `path` (CLOEXEC),
/// replacing a stale socket file left there. The caller unlinks `path`
/// when it is done. Throws UserError when the path does not fit
/// sockaddr_un or socket, bind or listen fails.
int listen_unix(const std::string& path);

/// accept(2) with errno classification instead of a hard exit:
///   * EINTR is retried immediately (signals are routine — the daemons run
///     with a SIGTERM self-pipe).
///   * ECONNABORTED / EAGAIN / EWOULDBLOCK / EPROTO mean "this connection
///     evaporated, nothing is wrong" — returns -1 so a poll-driven caller
///     loops back around.
///   * EMFILE / ENFILE / ENOBUFS / ENOMEM are transient resource
///     exhaustion: retried up to `max_transient` times with a short sleep
///     (pending connections stay queued in the kernel backlog), then -1.
///   * Anything else (EBADF, EINVAL, ENOTSOCK, ...) is a programming or
///     teardown error and throws UserError.
/// The returned connection fd has CLOEXEC set.
int accept_with_retry(int listen_fd, std::uint32_t max_transient = 64);

/// Blocking connect with a wall-clock timeout: resolves host:port,
/// connects non-blocking, polls for completion (EINTR-safe, the deadline
/// does not reset on interruption), then restores blocking mode and sets
/// TCP_NODELAY (the framed request/response protocol is latency-bound;
/// Nagle would batch the 8-byte PMF1 header against the payload).
/// Returns the connected fd (CLOEXEC). Throws UserError on resolution
/// failure, refusal, or timeout.
int connect_tcp(const std::string& host, std::uint16_t port,
                std::uint64_t timeout_ms);

/// Sets TCP_NODELAY on an already-connected socket. Best-effort: failure
/// (e.g. on an AF_UNIX fd) is ignored.
void set_tcp_nodelay(int fd);

}  // namespace parmem::support
