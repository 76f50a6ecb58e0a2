// parmemd and parmem-router end to end, as processes. Each case fork/execs
// a built daemon binary (its path is compiled in), sends one framed request
// on each of two sequential connections, then SIGTERMs it. A clean drain
// exits 0, reports "drained after 2 responses" on stderr and, in --socket
// mode, removes its socket file. Every path is a fresh temporary directory
// and TCP binds port 0, so the cases are safe to run in parallel.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/frame.h"
#include "service/request.h"
#include "support/net.h"

namespace parmem::service {
namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kTimeout = std::chrono::seconds(30);

/// A fresh directory under the system temp dir, removed with the object.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "parmem-daemon-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp: " << std::strerror(errno);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// A daemon child process with its stderr on a pipe. The destructor
/// SIGKILLs and reaps a child a failed assertion left running.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> argv) {
    int err[2];
    if (::pipe2(err, O_CLOEXEC) != 0) {
      ADD_FAILURE() << "pipe2: " << std::strerror(errno);
      return;
    }
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      const int null_fd = ::open("/dev/null", O_RDWR);
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(err[1], STDERR_FILENO);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(err[1]);
    err_fd_ = err[0];
    if (pid_ < 0) ADD_FAILURE() << "fork: " << std::strerror(errno);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (err_fd_ >= 0) ::close(err_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads stderr until it contains `needle`, EOF, or the timeout. Returns
  /// whether `needle` was seen.
  bool read_stderr_until(const std::string& needle) {
    const auto deadline = Clock::now() + kTimeout;
    while (stderr_.find(needle) == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{err_fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return false;
      char buf[4096];
      const ssize_t n = ::read(err_fd_, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // EOF: the daemon closed stderr
      stderr_.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// SIGTERMs the daemon, collects the rest of its stderr and reaps it.
  /// Returns the exit code, or -1 when it did not exit normally in time.
  int terminate() {
    ::kill(pid_, SIGTERM);
    // An impossible needle reads to EOF (or the timeout).
    read_stderr_until(std::string(1, '\0'));
    const auto deadline = Clock::now() + kTimeout;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) return -1;
      if (Clock::now() >= deadline) return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  const std::string& stderr_text() const { return stderr_; }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::string stderr_;
};

/// Connects to a unix socket, retrying while the daemon is still binding.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  const auto deadline = Clock::now() + kTimeout;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (Clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Sends one request on `fd`, half-closes, and returns the one response.
/// A receive timeout turns a wedged daemon into a failed read.
CompileResponse round_trip(int fd, std::uint64_t id) {
  timeval tv{};
  tv.tv_sec = kTimeout.count();
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  CompileRequest req;
  req.id = id;
  req.kind = RequestKind::kStream;
  req.module_count = 2;
  req.fu_count = 2;
  req.body = "stream 2\ntuple 0 1\n";
  FdStream stream(fd, fd);
  write_frame(stream, format_request(req));
  ::shutdown(fd, SHUT_WR);
  std::string payload;
  const bool got = read_frame(stream, payload);
  ::close(fd);
  if (!got) {
    CompileResponse none;
    none.diagnostic = "connection closed without a response";
    return none;
  }
  return parse_response(payload);
}

/// Serves two requests over two sequential connections made by `connect`,
/// then drains the daemon and checks the exit and the drain line.
void two_connections_then_drain(Daemon& d, const std::function<int()>& connect,
                                const std::string& drained_line) {
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const int fd = connect();
    ASSERT_GE(fd, 0) << d.stderr_text();
    const CompileResponse resp = round_trip(fd, id);
    EXPECT_EQ(resp.id, id);
    EXPECT_EQ(resp.status, ResponseStatus::kOk) << resp.diagnostic;
  }
  EXPECT_EQ(d.terminate(), 0) << d.stderr_text();
  EXPECT_NE(d.stderr_text().find(drained_line), std::string::npos)
      << d.stderr_text();
}

TEST(DaemonEndToEnd, ParmemdUnixSocket) {
  const TempDir dir;
  const std::string sock = dir.file("parmemd.sock");
  Daemon d({PARMEMD_BIN, "--socket", sock});
  two_connections_then_drain(
      d, [&] { return connect_unix(sock); },
      "parmemd: drained after 2 responses\n");
  EXPECT_FALSE(std::filesystem::exists(sock));
}

TEST(DaemonEndToEnd, ParmemdTcpEphemeralPort) {
  Daemon d({PARMEMD_BIN, "--listen-tcp", "127.0.0.1:0"});
  const std::string prefix = "parmemd: listening on 127.0.0.1:";
  ASSERT_TRUE(d.read_stderr_until("\n")) << d.stderr_text();
  const std::size_t at = d.stderr_text().find(prefix);
  ASSERT_NE(at, std::string::npos) << d.stderr_text();
  const auto port = static_cast<std::uint16_t>(
      std::stoul(d.stderr_text().substr(at + prefix.size())));
  ASSERT_NE(port, 0u);
  two_connections_then_drain(
      d, [&] { return support::connect_tcp("127.0.0.1", port, 5000); },
      "parmemd: drained after 2 responses\n");
}

TEST(DaemonEndToEnd, RouterUnixSocketInprocessWorkers) {
  const TempDir dir;
  const std::string sock = dir.file("router.sock");
  Daemon d({PARMEM_ROUTER_BIN, "--socket", sock, "--fleet", "2"});
  two_connections_then_drain(
      d, [&] { return connect_unix(sock); },
      "parmem-router: drained after 2 responses\n");
  EXPECT_FALSE(std::filesystem::exists(sock));
}

}  // namespace
}  // namespace parmem::service
