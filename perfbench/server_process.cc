#include "server_process.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "net/socket.h"
#include "runtime/clock.h"

namespace perfbench {

namespace {

/// Reads what the child wrote so far into *out; false on EOF or error.
/// Waits at most `timeout_ms` for the first byte.
bool ReadSome(int fd, std::string* out, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int r = ::poll(&p, 1, timeout_ms);
  if (r <= 0) return r == 0;
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return false;
  out->append(buf, static_cast<size_t>(n));
  return true;
}

/// Port number following `marker` in `text` (up to the next non-digit).
int PortAfter(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return -1;
  size_t colon = text.find(':', at + marker.size());
  if (colon == std::string::npos) return -1;
  const size_t eol = text.find('\n', at);
  if (eol == std::string::npos || colon > eol) return -1;
  return std::atoi(text.c_str() + colon + 1);
}

}  // namespace

saber::Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, std::vector<std::string> args, int timeout_ms) {
  args.insert(args.begin(), binary);
  for (const char* a : {"--port", "0", "--metrics-port", "0"}) {
    args.emplace_back(a);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) return saber::Status::IOError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return saber::Status::IOError("fork failed");
  }
  if (pid == 0) {
    // The server must not outlive the load generator, however that ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s failed\n", argv[0]);
    ::_exit(127);
  }
  ::close(fds[1]);
  auto proc = std::make_unique<ServerProcess>();
  proc->pid_ = pid;
  proc->out_fd_ = fds[0];

  const int64_t deadline =
      saber::NowNanos() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  while (proc->port_ < 0 || proc->metrics_port_ < 0) {
    const int64_t left_ms = (deadline - saber::NowNanos()) / 1'000'000;
    if (left_ms <= 0 || !ReadSome(proc->out_fd_, &proc->output_,
                                  static_cast<int>(left_ms))) {
      return saber::Status::Unavailable("saber_server did not come up: " +
                                        proc->output_);
    }
    proc->metrics_port_ = PortAfter(proc->output_, "metrics on http://");
    proc->port_ = PortAfter(proc->output_, "listening on ");
  }
  return proc;
}

ServerProcess::~ServerProcess() {
  Kill();
  if (out_fd_ >= 0) ::close(out_fd_);
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

int64_t ServerProcess::PeakRssKiB() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

std::string ServerProcess::ScrapeMetrics() const {
  auto sock = saber::net::Dial("127.0.0.1", metrics_port_, 2000);
  if (!sock.ok()) return {};
  const std::string req = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!saber::net::WriteFull(sock.value().fd(), req.data(), req.size()).ok()) {
    return {};
  }
  std::string resp;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.value().fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  const size_t body = resp.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : resp.substr(body + 4);
}

int ServerProcess::Stop(int timeout_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGINT);
  const int64_t deadline =
      saber::NowNanos() + static_cast<int64_t>(timeout_ms) * 1'000'000;
  int status = 0;
  bool pipe_open = true;
  for (;;) {
    rusage usage{};
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_) {
      auto nanos = [](const timeval& tv) {
        return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
               static_cast<int64_t>(tv.tv_usec) * 1'000;
      };
      cpu_nanos_ = nanos(usage.ru_utime) + nanos(usage.ru_stime);
      break;
    }
    const int64_t left_ms = (deadline - saber::NowNanos()) / 1'000'000;
    if (left_ms <= 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    // Keep the pipe drained so the shutdown summary cannot block the child.
    const int wait_ms = static_cast<int>(std::min<int64_t>(left_ms, 20));
    if (pipe_open) {
      pipe_open = ReadSome(out_fd_, &output_, wait_ms);
    } else {
      ::poll(nullptr, 0, wait_ms);
    }
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
