//===- e2ebench/Process.h - Child processes of the benchmark ----*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spawning and reaping the processes bench_e2e measures: one-shot
/// astral-cli runs (stdout and stderr captured, CPU and peak RSS from wait4)
/// and the serve daemon (reaped after `shutdown`, killed on every other
/// path).
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_E2EBENCH_PROCESS_H
#define ASTRAL_E2EBENCH_PROCESS_H

#include "service/Client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <ctime>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace e2e {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpuSeconds(const rusage &Ru) {
  return double(Ru.ru_utime.tv_sec + Ru.ru_stime.tv_sec) +
         double(Ru.ru_utime.tv_usec + Ru.ru_stime.tv_usec) / 1e6;
}

/// CPU time of process \p Pid (0: this process), all threads, from its
/// POSIX CPU-time clock; negative when it cannot be read.
inline double processCpuS(pid_t Pid) {
  clockid_t Clock = CLOCK_PROCESS_CPUTIME_ID;
  timespec T{};
  if ((Pid != 0 && clock_getcpuclockid(Pid, &Clock) != 0) ||
      clock_gettime(Clock, &T) != 0)
    return -1.0;
  return double(T.tv_sec) + double(T.tv_nsec) / 1e9;
}

/// One finished child: its exit, timing and resource use.
struct ProcessResult {
  bool Spawned = false;
  bool TimedOut = false;
  int ExitCode = -1; ///< -1 when the child died from a signal.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  double CpuS = 0.0;
  long MaxRssKb = 0;
  std::string Out;
  std::string Err;

  double wallS() const { return double(EndNs - StartNs) / 1e9; }
};

/// Spawns \p Argv (PATH lookup for Argv[0]) with stdout on \p StdoutFd
/// (or /dev/null when negative) and stderr written to \p StderrPath.
/// SIGPIPE is reset to its default in the child: bench_e2e ignores it.
inline bool spawnProcess(const std::vector<std::string> &Argv, int StdoutFd,
                         const std::string &StderrPath, pid_t &Pid) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  if (StdoutFd >= 0)
    posix_spawn_file_actions_adddup2(&FA, StdoutFd, 1);
  else
    posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 2, StderrPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawnattr_t Attr;
  posix_spawnattr_init(&Attr);
  sigset_t Default;
  sigemptyset(&Default);
  sigaddset(&Default, SIGPIPE);
  posix_spawnattr_setsigdefault(&Attr, &Default);
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETSIGDEF);
  int Rc = posix_spawnp(&Pid, Args[0], &FA, &Attr, Args.data(), environ);
  posix_spawnattr_destroy(&Attr);
  posix_spawn_file_actions_destroy(&FA);
  return Rc == 0;
}

/// Runs \p Argv to completion, capturing stdout, and stderr through
/// \p StderrPath. The wall time runs from just before the spawn to just
/// after the reap; a child still running after \p TimeoutS is killed and
/// reported as TimedOut.
inline ProcessResult runProcess(const std::vector<std::string> &Argv,
                                const std::string &StderrPath,
                                double TimeoutS) {
  ProcessResult R;
  int Fds[2];
  if (pipe2(Fds, O_CLOEXEC) != 0)
    return R;
  pid_t Pid = -1;
  R.StartNs = nowNs();
  R.Spawned = spawnProcess(Argv, Fds[1], StderrPath, Pid);
  close(Fds[1]);
  if (!R.Spawned) {
    close(Fds[0]);
    R.EndNs = nowNs();
    return R;
  }

  const int64_t Deadline = R.StartNs + int64_t(TimeoutS * 1e9);
  char Buf[65536];
  for (;;) {
    int64_t Left = Deadline - nowNs();
    if (Left <= 0) {
      R.TimedOut = true;
      kill(Pid, SIGKILL);
      break;
    }
    pollfd P{Fds[0], POLLIN, 0};
    int N = poll(&P, 1, int(std::min<int64_t>(Left / 1000000 + 1, 1000)));
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0)
      continue;
    ssize_t Got = read(Fds[0], Buf, sizeof(Buf));
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      break;
    R.Out.append(Buf, size_t(Got));
  }
  close(Fds[0]);

  int Status = 0;
  rusage Ru{};
  while (wait4(Pid, &Status, 0, &Ru) < 0 && errno == EINTR) {
  }
  R.EndNs = nowNs();
  R.CpuS = cpuSeconds(Ru);
  R.MaxRssKb = Ru.ru_maxrss;
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  if (std::FILE *F = std::fopen(StderrPath.c_str(), "r")) {
    size_t Got = 0;
    while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      R.Err.append(Buf, Got);
    std::fclose(F);
  }
  return R;
}

/// An `astral-cli serve` daemon owned by bench_e2e. The destructor kills
/// and reaps a daemon that was not stopped, so no exit path leaks one.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { kill(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::vector<std::string> &Argv, const std::string &Log) {
    StartNs = nowNs();
    return spawnProcess(Argv, -1, Log, Pid);
  }

  /// Connects once the daemon listens on \p Socket; null when it exits or
  /// \p TimeoutS passes first.
  std::unique_ptr<astral::service::Client>
  connect(const std::string &Socket, double TimeoutS, std::string &Err) {
    astral::service::ConnectOptions Opts;
    Opts.IoTimeoutMs = 120000;
    const int64_t Deadline = nowNs() + int64_t(TimeoutS * 1e9);
    while (Pid > 0) {
      if (auto C = astral::service::Client::connect(Socket, Err, Opts))
        return C;
      int Status = 0;
      rusage Ru{};
      if (wait4(Pid, &Status, WNOHANG, &Ru) == Pid) {
        Pid = -1;
        Err = "daemon exited before listening";
        break;
      }
      if (nowNs() > Deadline) {
        Err = "daemon did not listen within the timeout";
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return nullptr;
  }

  /// Sends `shutdown` over \p C and reaps the daemon, recording its peak
  /// RSS.
  bool stop(astral::service::Client &C, std::string &Err) {
    astral::service::Request Shutdown;
    Shutdown.Operation = astral::service::Request::Op::Shutdown;
    std::optional<astral::service::JsonValue> Doc = C.roundTrip(Shutdown, Err);
    if (!Doc)
      return false;
    const int64_t Deadline = nowNs() + int64_t(30e9);
    while (Pid > 0) {
      int Status = 0;
      rusage Ru{};
      pid_t Got = wait4(Pid, &Status, WNOHANG, &Ru);
      if (Got == Pid) {
        Pid = -1;
        MaxRssKb = Ru.ru_maxrss;
        return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      }
      if (nowNs() > Deadline) {
        Err = "daemon did not exit after shutdown";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  void kill() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGKILL);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
  }

  /// CPU time of the running daemon, all threads; negative when unknown.
  double cpuS() const { return Pid > 0 ? processCpuS(Pid) : -1.0; }

  int64_t StartNs = 0;
  long MaxRssKb = 0;

private:
  pid_t Pid = -1;
};

} // namespace e2e

#endif // ASTRAL_E2EBENCH_PROCESS_H
