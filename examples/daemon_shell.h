// The process shell parmemd and parmem-router share: the SIGTERM/SIGINT
// self-pipe, the flag reader, serving clients on stdin/stdout or on a
// listening socket, the --trace/--stats session, and main()'s exit codes
// (1 for a user error, 2 for an internal one).
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <string>

#include "service/frame.h"
#include "service/server.h"
#include "support/diagnostics.h"
#include "telemetry/export.h"
#include "telemetry/session.h"

namespace parmem::shell {

inline int g_signal_pipe[2] = {-1, -1};

inline void on_shutdown_signal(int) {
  const char byte = 1;
  // Best effort: the self-pipe is non-blocking and one byte is enough.
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Routes SIGTERM and SIGINT into the self-pipe, whose read end is the
/// stop fd of every serve loop, and ignores SIGPIPE: FdStream already masks
/// it per write, but a stray EPIPE elsewhere must not kill a daemon.
inline void install_signal_pipe() {
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

/// Walks argv one flag at a time; value() and count() take the current
/// flag's argument and throw support::UserError when it is missing or not
/// a number.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next flag; false past the last one.
  bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  const std::string& flag() const { return flag_; }

  const char* value() {
    if (i_ + 1 >= argc_) {
      throw support::UserError("missing value after " + flag_);
    }
    return argv_[++i_];
  }

  std::uint64_t count() {
    const char* text = value();
    try {
      return std::stoull(text);
    } catch (const std::exception&) {
      throw support::UserError("invalid number for " + flag_ + ": '" +
                               std::string(text) + "'");
    }
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
};

/// Serves framed requests through `submit` and returns the number of
/// responses written. With `listen_fd` < 0 the client is stdin/stdout and
/// its EOF ends the serve; otherwise the clients are the connections
/// `listen_fd` accepts (service::serve_connections), and the listener is
/// closed afterwards, its `unix_path` unlinked when given. SIGTERM and
/// SIGINT end either.
inline std::uint64_t serve_clients(int listen_fd, const std::string& unix_path,
                                   const service::SubmitFn& submit) {
  if (listen_fd < 0) {
    service::FdStream stream(STDIN_FILENO, STDOUT_FILENO, g_signal_pipe[0]);
    return service::serve_frames(stream, submit);
  }
  const std::uint64_t served =
      service::serve_connections(listen_fd, g_signal_pipe[0], submit);
  ::close(listen_fd);
  if (!unix_path.empty()) ::unlink(unix_path.c_str());
  return served;
}

/// Runs a daemon's body inside the shell: installs the signal pipe and,
/// when --trace or --stats asked for it, runs the global trace session
/// around `body`, then writes the trace file and prints the phase and
/// counter tables. Returns the body's exit code, or 2 when the trace file
/// cannot be written.
inline int run(const std::string& trace_path, bool stats,
               const std::function<int()>& body) {
  install_signal_pipe();
  const bool traced = !trace_path.empty() || stats;
  if (traced) {
    if (!telemetry::kEnabled) {
      std::fprintf(stderr,
                   "warning: built with -DPARMEM_TELEMETRY=OFF — the trace "
                   "and stats will be empty\n");
    }
    telemetry::TraceSession::global().start();
  }
  const int rc = body();
  if (!traced) return rc;

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
  return rc;
}

/// main()'s body: runs `body`, mapping a support::UserError to exit 1 and
/// any other exception to exit 2, each with a one-line diagnostic.
inline int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const support::UserError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 2;
  }
}

}  // namespace parmem::shell
