// Socket helpers (support/net.h): endpoint parsing, listen/connect
// round trips over loopback, the unix-socket listener, errno
// classification in accept_with_retry, and the typed failure modes
// (refused connect, malformed specs) the router's reconnect loop depends
// on being catchable.
#include "support/net.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "support/diagnostics.h"

namespace parmem::support {
namespace {

TEST(ParseHostPort, AcceptsHostColonPort) {
  const HostPort hp = parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
}

TEST(ParseHostPort, AcceptsNamesAndEphemeralZero) {
  EXPECT_EQ(parse_host_port("localhost:0").port, 0);
  EXPECT_EQ(parse_host_port("some.host.example:65535").port, 65535);
  // rfind: an IPv6-ish spec keeps everything before the last colon as host.
  EXPECT_EQ(parse_host_port("::1:9").host, "::1");
}

TEST(ParseHostPort, RejectsMalformedSpecs) {
  for (const char* bad : {"nohost", ":1234", "host:", "host:abc",
                          "host:12x4", "host:65536", "host:999999", ""}) {
    EXPECT_THROW(parse_host_port(bad), UserError) << bad;
  }
}

TEST(Net, ListenConnectAcceptRoundTripsBytes) {
  std::uint16_t port = 0;
  const int listen_fd = listen_tcp("127.0.0.1", 0, &port);
  ASSERT_GE(listen_fd, 0);
  ASSERT_NE(port, 0);

  const int client = connect_tcp("127.0.0.1", port, 2000);
  ASSERT_GE(client, 0);
  const int server = accept_with_retry(listen_fd);
  ASSERT_GE(server, 0);

  const char msg[] = "over the wire";
  ASSERT_EQ(::write(client, msg, sizeof msg),
            static_cast<ssize_t>(sizeof msg));
  char buf[sizeof msg] = {};
  std::size_t got = 0;
  while (got < sizeof msg) {
    const ssize_t n = ::read(server, buf + got, sizeof msg - got);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_STREQ(buf, msg);

  // connect_tcp leaves the fd blocking (FdStream expects that) with
  // TCP_NODELAY set; both ends carry CLOEXEC.
  const int flags = ::fcntl(client, F_GETFL, 0);
  EXPECT_EQ(flags & O_NONBLOCK, 0);
  int nodelay = 0;
  socklen_t len = sizeof nodelay;
  ASSERT_EQ(::getsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);
  EXPECT_NE(::fcntl(client, F_GETFD, 0) & FD_CLOEXEC, 0);
  EXPECT_NE(::fcntl(server, F_GETFD, 0) & FD_CLOEXEC, 0);

  ::close(client);
  ::close(server);
  ::close(listen_fd);
}

TEST(Net, ConnectToClosedPortThrowsTyped) {
  // Bind-then-close guarantees the port is currently refused, not filtered.
  std::uint16_t port = 0;
  const int fd = listen_tcp("127.0.0.1", 0, &port);
  ::close(fd);
  EXPECT_THROW(connect_tcp("127.0.0.1", port, 500), UserError);
}

TEST(Net, ConnectToUnresolvableHostThrowsTyped) {
  EXPECT_THROW(connect_tcp("no.such.host.invalid", 1, 500), UserError);
}

TEST(Net, AcceptClassifiesNoPendingConnectionAsTransient) {
  // A non-blocking listener with an empty backlog raises EAGAIN: the
  // classifier must hand back -1 ("loop around"), never throw or spin.
  std::uint16_t port = 0;
  const int listen_fd = listen_tcp("127.0.0.1", 0, &port);
  const int flags = ::fcntl(listen_fd, F_GETFL, 0);
  ASSERT_EQ(::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK), 0);
  EXPECT_EQ(accept_with_retry(listen_fd), -1);
  ::close(listen_fd);
}

TEST(Net, AcceptOnABadFdThrowsInsteadOfRetrying) {
  EXPECT_THROW(accept_with_retry(-1), UserError);
  // A closed-but-valid-looking fd is EBADF too — a teardown race must
  // surface, not burn the transient-retry budget.
  std::uint16_t port = 0;
  const int fd = listen_tcp("127.0.0.1", 0, &port);
  ::close(fd);
  EXPECT_THROW(accept_with_retry(fd), UserError);
}

TEST(Net, ListenPicksDistinctEphemeralPorts) {
  std::uint16_t a = 0, b = 0;
  const int fa = listen_tcp("127.0.0.1", 0, &a);
  const int fb = listen_tcp("127.0.0.1", 0, &b);
  EXPECT_NE(a, 0);
  EXPECT_NE(b, 0);
  EXPECT_NE(a, b);
  ::close(fa);
  ::close(fb);
}

TEST(Net, RebindAfterCloseReusesThePort) {
  // The chaos harness "restarts the daemon" by re-listening on the same
  // port; SO_REUSEADDR must make that deterministic on loopback.
  std::uint16_t port = 0;
  const int first = listen_tcp("127.0.0.1", 0, &port);
  ::close(first);
  std::uint16_t again = 0;
  const int second = listen_tcp("127.0.0.1", port, &again);
  EXPECT_EQ(again, port);
  ::close(second);
}

TEST(Net, ListenUnixRejectsAnOverlongPathTyped) {
  EXPECT_THROW(listen_unix("/" + std::string(200, 'a')), UserError);
}

TEST(Net, ListenUnixReplacesAStaleSocketFile) {
  // A daemon killed without its drain leaves its socket file behind; the
  // restart must bind over it and accept connections.
  std::string dir =
      (std::filesystem::temp_directory_path() / "parmem-net-XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/s.sock";
  ::close(listen_unix(path));  // leaves the file
  const int fd = listen_unix(path);
  const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  EXPECT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ::close(client);
  ::close(fd);
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace parmem::support
