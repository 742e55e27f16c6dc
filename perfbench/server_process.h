#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/status.h"

/// \file server_process.h
/// A saber_server child process: spawned with its stdout on a pipe so the
/// ephemeral data and /metrics ports can be read back, sampled through
/// /proc for CPU time and peak RSS, and stopped with SIGINT (which makes
/// the server write its --trace-out file) and reaped.

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary` with `args` plus `--port 0 --metrics-port 0`, and waits
  /// (at most `timeout_ms`) until it prints both bound ports.
  static saber::Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, std::vector<std::string> args,
      int timeout_ms);

  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  int metrics_port() const { return metrics_port_; }
  pid_t pid() const { return pid_; }

  /// VmHWM in KiB.
  int64_t PeakRssKiB() const;
  /// GET /metrics body (empty on failure).
  std::string ScrapeMetrics() const;

  /// SIGKILL and reap (no trace file, no shutdown summary).
  void Kill();

  /// SIGINT, drain stdout, reap. Falls back to SIGKILL after `timeout_ms`.
  /// Returns the exit status (-1 when it had to be killed).
  int Stop(int timeout_ms);

  /// User + system CPU time of every thread over the process's life
  /// (microsecond resolution; valid after Stop).
  int64_t cpu_nanos() const { return cpu_nanos_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = -1;
  int metrics_port_ = -1;
  std::string output_;
  int64_t cpu_nanos_ = 0;
};

}  // namespace perfbench
