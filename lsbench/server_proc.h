// A spawned lambdastore-server process, owned for its whole life: it is
// stopped (SIGTERM, then SIGKILL if the drain hangs) and reaped on every
// exit path, so a failed run never leaves a server behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common/status.h"

namespace lo::lsbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `bin --db=<db_dir>` — no other flag, and no LO_* variable in
  /// its environment, so the server runs on its defaults — and waits up
  /// to `ready_timeout_ms` for its "READY port=<p>" line.
  Status Start(const std::string& bin, const std::string& db_dir,
               int ready_timeout_ms);

  /// Graceful stop: SIGTERM, wait up to `timeout_ms` for the drain, then
  /// SIGKILL. Returns the exit status from waitpid (or -1).
  int Stop(int timeout_ms);

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace lo::lsbench
