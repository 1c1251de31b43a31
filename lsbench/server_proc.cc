#include "server_proc.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

extern char** environ;

namespace lo::lsbench {

ServerProcess::~ServerProcess() { Stop(5000); }

Status ServerProcess::Start(const std::string& bin, const std::string& db_dir,
                            int ready_timeout_ms) {
  int pipefd[2];
  if (pipe(pipefd) != 0) return Status::IOError("pipe");

  // Everything the child touches is built before vfork: between vfork
  // and exec it may only make plain system calls.
  std::vector<std::string> args = {bin, "--db=" + db_dir};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  // The server reads LO_* knobs from its environment; drop them all so a
  // stray export cannot change its defaults.
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "LO_", 3) != 0) envp.push_back(*e);
  }
  envp.push_back(nullptr);

  // vfork, not fork: the child borrows this process's memory until it
  // execs, so spawning costs the same however large the benchmark's own
  // heap is (it holds a freshly seeded DB's leftovers on a first run).
  pid_ = vfork();
  if (pid_ < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return Status::IOError(std::string("vfork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // The server dies with this (the forking) thread, even when the
    // benchmark is killed before it could stop the server itself.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(pipefd[1], STDOUT_FILENO);
    close(pipefd[0]);
    close(pipefd[1]);
    execve(bin.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  close(pipefd[1]);
  stdout_fd_ = pipefd[0];

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(ready_timeout_ms);
  std::string out;
  while (true) {
    size_t pos = out.find("READY port=");
    if (pos != std::string::npos && out.find('\n', pos) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::atoi(out.c_str() + pos + std::strlen("READY port=")));
      return Status::OK();
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) return Status::Timeout("server printed no READY line");
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[256];
    ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return Status::Unavailable("server exited before READY");
    out.append(buf, static_cast<size_t>(n));
  }
}

int ServerProcess::Stop(int timeout_ms) {
  int status = -1;
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    pid_t done = 0;
    while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return status;
}

}  // namespace lo::lsbench
