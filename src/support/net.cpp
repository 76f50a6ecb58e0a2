#include "support/net.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/diagnostics.h"

namespace parmem::support {
namespace {

[[noreturn]] void fail(const std::string& what, int err) {
  throw UserError(what + ": " + std::strerror(err));
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// getaddrinfo over the numeric-or-named host. The caller frees the result
/// via the returned guard.
struct AddrList {
  addrinfo* head = nullptr;
  ~AddrList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

void resolve(const std::string& host, std::uint16_t port, bool passive,
             AddrList* out) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  if (passive) hints.ai_flags = AI_PASSIVE;
  const std::string port_str = std::to_string(port);
  const int rc =
      ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &out->head);
  if (rc != 0) {
    throw UserError("cannot resolve " + host + ":" + port_str + ": " +
                    ::gai_strerror(rc));
  }
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

HostPort parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    throw UserError("malformed endpoint '" + spec + "' (want host:port)");
  }
  HostPort hp;
  hp.host = spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  std::uint64_t port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9') {
      throw UserError("malformed port in '" + spec + "'");
    }
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    if (port > 65535) throw UserError("port out of range in '" + spec + "'");
  }
  hp.port = static_cast<std::uint16_t>(port);
  return hp;
}

int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t* bound_port, int backlog) {
  AddrList addrs;
  resolve(host, port, /*passive=*/true, &addrs);
  int last_err = 0;
  for (addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family,
                            ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last_err = errno;
      ::close(fd);
      continue;
    }
    if (bound_port != nullptr) {
      sockaddr_storage ss{};
      socklen_t len = sizeof(ss);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) == 0) {
        if (ss.ss_family == AF_INET) {
          *bound_port =
              ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
        } else if (ss.ss_family == AF_INET6) {
          *bound_port =
              ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
        }
      }
    }
    return fd;
  }
  fail("cannot listen on " + host + ":" + std::to_string(port),
       last_err != 0 ? last_err : EADDRNOTAVAIL);
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw UserError("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw UserError("cannot create socket");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 8) != 0) {
    ::close(fd);
    throw UserError("cannot bind/listen on " + path);
  }
  return fd;
}

int accept_with_retry(int listen_fd, std::uint32_t max_transient) {
  std::uint32_t exhausted = 0;
  for (;;) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn >= 0) {
      set_cloexec(conn);
      return conn;
    }
    switch (errno) {
      case EINTR:
        continue;
      case ECONNABORTED:
      case EAGAIN:
#if EAGAIN != EWOULDBLOCK
      case EWOULDBLOCK:
#endif
#ifdef EPROTO
      case EPROTO:
#endif
        // The pending connection died before we got it, or the listener is
        // non-blocking and raced. Nothing wrong with the listener.
        return -1;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        // Resource exhaustion is usually somebody else's short-lived fd
        // leak or memory spike; the pending connection waits in the kernel
        // backlog while we back off instead of exiting the serve loop.
        if (exhausted++ >= max_transient) return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      default:
        fail("accept failed", errno);
    }
  }
}

int connect_tcp(const std::string& host, std::uint16_t port,
                std::uint64_t timeout_ms) {
  AddrList addrs;
  resolve(host, port, /*passive=*/false, &addrs);
  const std::uint64_t deadline = now_ms() + timeout_ms;
  int last_err = 0;
  for (addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(
        ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
        ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    int rc;
    do {
      rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0 && errno == EINPROGRESS) {
      // Poll for writability until the shared deadline; EINTR does not
      // reset the budget.
      for (;;) {
        const std::uint64_t now = now_ms();
        if (now >= deadline) {
          rc = -1;
          errno = ETIMEDOUT;
          break;
        }
        pollfd pfd{fd, POLLOUT, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(deadline - now));
        if (pr < 0) {
          if (errno == EINTR) continue;
          rc = -1;
          break;
        }
        if (pr == 0) {
          rc = -1;
          errno = ETIMEDOUT;
          break;
        }
        int so_err = 0;
        socklen_t len = sizeof(so_err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_err, &len);
        rc = so_err == 0 ? 0 : -1;
        if (so_err != 0) errno = so_err;
        break;
      }
    }
    if (rc != 0) {
      last_err = errno;
      ::close(fd);
      continue;
    }
    // Connected: restore blocking mode (FdStream expects blocking I/O) and
    // turn Nagle off for the header+payload write pattern.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    set_tcp_nodelay(fd);
    return fd;
  }
  fail("cannot connect to " + host + ":" + std::to_string(port),
       last_err != 0 ? last_err : ECONNREFUSED);
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace parmem::support
