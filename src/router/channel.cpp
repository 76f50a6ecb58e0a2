#include "router/channel.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "service/request.h"
#include "support/diagnostics.h"
#include "support/net.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace parmem::router {
namespace {

/// Both channel kinds share the socket half the router holds: an FdStream
/// over one fd, shutdown(2) as the kill/stop primitive. shutdown (unlike
/// close) is safe while another thread is blocked in read on the same fd —
/// the reader unblocks with EOF and there is no fd-reuse race.
class SocketHalf {
 public:
  explicit SocketHalf(int fd) : fd_(fd), stream_(fd, fd) {}
  ~SocketHalf() {
    if (fd_ >= 0) ::close(fd_);
  }
  SocketHalf(const SocketHalf&) = delete;
  SocketHalf& operator=(const SocketHalf&) = delete;

  service::ByteStream& stream() { return stream_; }

  void shutdown_write() {
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }
  void shutdown_both() {
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  std::mutex mu_;
  int fd_;
  service::FdStream stream_;
};

int make_socketpair(int fds[2]) {
  return ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds);
}

class ProcessWorker : public WorkerChannel {
 public:
  ProcessWorker(const std::vector<std::string>& argv,
                const std::string& stderr_path) {
    PARMEM_CHECK(!argv.empty(), "process worker needs an argv");
    int fds[2];
    if (make_socketpair(fds) != 0) {
      throw support::UserError(std::string("socketpair failed: ") +
                               std::strerror(errno));
    }
    // Open the log in the parent so a bad path is a clean UserError, not a
    // silent child death.
    int err_fd = -1;
    if (!stderr_path.empty()) {
      err_fd = ::open(stderr_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (err_fd < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw support::UserError("cannot open worker log " + stderr_path);
      }
    }

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      if (err_fd >= 0) ::close(err_fd);
      throw support::UserError(std::string("fork failed: ") +
                               std::strerror(errno));
    }
    if (pid_ == 0) {
      // Child: only async-signal-safe calls between fork and exec.
      ::dup2(fds[1], STDIN_FILENO);
      ::dup2(fds[1], STDOUT_FILENO);
      if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
      ::execv(cargv[0], cargv.data());
      // exec failed — exit without running any parent-state destructors.
      ::_exit(127);
    }
    ::close(fds[1]);
    if (err_fd >= 0) ::close(err_fd);
    half_ = std::make_unique<SocketHalf>(fds[0]);
  }

  ~ProcessWorker() override {
    kill();
    join();
  }

  service::ByteStream& stream() override { return half_->stream(); }

  void stop_input() override { half_->shutdown_write(); }

  void kill() override {
    half_->shutdown_both();
    std::lock_guard<std::mutex> lk(mu_);
    if (!reaped_ && pid_ > 0) ::kill(pid_, SIGKILL);
  }

  bool join() override {
    std::lock_guard<std::mutex> lk(mu_);
    if (reaped_) return clean_;
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    reaped_ = true;
    clean_ = r == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return clean_;
  }

 private:
  pid_t pid_ = -1;
  std::unique_ptr<SocketHalf> half_;
  std::mutex mu_;
  bool reaped_ = false;
  bool clean_ = false;
};

class InprocessWorker : public WorkerChannel {
 public:
  explicit InprocessWorker(const service::ServiceOptions& opts) {
    int fds[2];
    if (make_socketpair(fds) != 0) {
      throw support::UserError(std::string("socketpair failed: ") +
                               std::strerror(errno));
    }
    half_ = std::make_unique<SocketHalf>(fds[0]);
    worker_fd_ = fds[1];
    svc_ = std::make_unique<service::CompileService>(opts);
    thread_ = std::thread([this] {
      service::FdStream ws(worker_fd_, worker_fd_);
      try {
        service::serve(ws, *svc_);
        clean_ = true;
      } catch (const std::exception&) {
        // A transport error below serve's own handling: the channel dies,
        // the router's reader sees EOF and supervision takes over.
      }
      svc_->drain();
      // Half-close back to the router so its reader sees EOF after a
      // graceful drain (a process worker gets this for free when the
      // kernel closes the dead child's fds). close() itself waits for the
      // destructor — no fd-reuse race with a concurrent shutdown.
      ::shutdown(worker_fd_, SHUT_RDWR);
    });
  }

  ~InprocessWorker() override {
    kill();
    join();
    if (worker_fd_ >= 0) ::close(worker_fd_);
  }

  service::ByteStream& stream() override { return half_->stream(); }

  void stop_input() override { half_->shutdown_write(); }

  void kill() override { half_->shutdown_both(); }

  bool join() override {
    if (thread_.joinable()) thread_.join();
    return clean_;
  }

  service::CompileService* service() override { return svc_.get(); }

 private:
  std::unique_ptr<SocketHalf> half_;
  int worker_fd_ = -1;
  std::unique_ptr<service::CompileService> svc_;
  std::thread thread_;
  bool clean_ = false;
};

/// A connected TCP socket to a remote daemon, same SocketHalf mechanics as
/// the local channels. There is no process to reap: join() reports clean
/// unless the channel was killed, and kill() only slams the local socket —
/// the remote daemon's fate belongs to whoever runs it.
class TcpWorker : public WorkerChannel {
 public:
  TcpWorker(const std::string& host, std::uint16_t port,
            const TcpChannelOptions& opts) {
    const std::uint32_t attempts =
        opts.connect_attempts == 0 ? 1 : opts.connect_attempts;
    // Seed the inter-attempt jitter by the endpoint so a fleet of workers
    // reconnecting after a shared outage spreads out instead of stampeding.
    const std::uint64_t seed =
        service::fnv1a64(host + ":" + std::to_string(port));
    int fd = -1;
    for (std::uint32_t attempt = 1;; ++attempt) {
      try {
        fd = support::connect_tcp(host, port, opts.connect_timeout_ms);
        break;
      } catch (const support::UserError&) {
        PARMEM_COUNTER_ADD("route.reconnect.failures", 1);
        if (attempt >= attempts) throw;
        const std::uint64_t delay_ms = support::backoff_with_jitter_ms(
            opts.connect_backoff_base_ms, opts.connect_backoff_cap_ms,
            attempt, seed);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    PARMEM_COUNTER_ADD("route.reconnect.connected", 1);
    half_ = std::make_unique<SocketHalf>(fd);
  }

  service::ByteStream& stream() override { return half_->stream(); }

  void stop_input() override { half_->shutdown_write(); }

  void kill() override {
    killed_.store(true, std::memory_order_relaxed);
    half_->shutdown_both();
  }

  bool join() override { return !killed_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<SocketHalf> half_;
  std::atomic<bool> killed_{false};
};

/// serve_tcp_inprocess: parmemd --listen-tcp's own accept loop
/// (service::serve_connections) on a thread, over one persistent
/// CompileService, so a dropped connection finds the same warm service on
/// reconnect.
class InprocessTcpServer : public TcpServerHandle {
 public:
  InprocessTcpServer(const service::ServiceOptions& opts,
                     const std::string& host, std::uint16_t port) {
    listen_fd_ = support::listen_tcp(host, port, &port_);
    if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      throw support::UserError(std::string("pipe2 failed: ") +
                               std::strerror(err));
    }
    svc_ = std::make_unique<service::CompileService>(opts);
    thread_ = std::thread([this] {
      try {
        service::serve_connections(listen_fd_, stop_pipe_[0],
                                   service::submit_to(*svc_), &live_);
      } catch (const std::exception&) {
        // The listener failed for good: this endpoint stops accepting.
      }
    });
  }

  ~InprocessTcpServer() override {
    stop();
    svc_->drain();
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
  }

  std::uint16_t port() const override { return port_; }

  service::CompileService* service() override { return svc_.get(); }

  void drop_connection() override { live_.shutdown(); }

  void stop() override {
    std::call_once(stop_once_, [this] {
      const char byte = 0;
      [[maybe_unused]] const ssize_t w = ::write(stop_pipe_[1], &byte, 1);
      live_.shutdown();
      if (thread_.joinable()) thread_.join();
      // Close the listener only after the accept loop has exited: from
      // here a connect is refused outright, so a router probing a stopped
      // endpoint fails fast instead of handshaking into a dead backlog.
      ::close(listen_fd_);
      listen_fd_ = -1;
    });
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int stop_pipe_[2] = {-1, -1};
  std::unique_ptr<service::CompileService> svc_;
  service::LiveConnection live_;
  std::once_flag stop_once_;
  std::thread thread_;
};

}  // namespace

std::unique_ptr<WorkerChannel> connect_tcp_worker(
    const std::string& host, std::uint16_t port,
    const TcpChannelOptions& opts) {
  return std::make_unique<TcpWorker>(host, port, opts);
}

std::unique_ptr<TcpServerHandle> serve_tcp_inprocess(
    const service::ServiceOptions& opts, const std::string& host,
    std::uint16_t port) {
  return std::make_unique<InprocessTcpServer>(opts, host, port);
}

std::unique_ptr<WorkerChannel> spawn_process_worker(
    const std::vector<std::string>& argv, const std::string& stderr_path) {
  return std::make_unique<ProcessWorker>(argv, stderr_path);
}

std::unique_ptr<WorkerChannel> spawn_inprocess_worker(
    const service::ServiceOptions& opts) {
  return std::make_unique<InprocessWorker>(opts);
}

}  // namespace parmem::router
