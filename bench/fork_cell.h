// Runs one bench cell in a forked child, so a peak-RSS measurement taken
// inside the cell (getrusage's ru_maxrss) moves for that cell alone and is
// not hidden by memory the parent process already holds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <type_traits>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace ab::bench {

/// Process peak RSS in bytes (ru_maxrss); 0 where unsupported.
inline std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#else
  return 0;
#endif
}

/// What this process has cost so far: minor page faults and user and
/// system CPU seconds (getrusage; zeros where unsupported). Read inside a
/// run_in_child cell they count that child alone: a forked child's
/// counters start at zero.
struct ProcessCost {
  std::uint64_t minor_faults = 0;
  double user_s = 0.0;
  double sys_s = 0.0;
};

inline ProcessCost process_cost() {
  ProcessCost cost;
#if defined(__linux__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return cost;
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  cost.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  cost.user_s = seconds(usage.ru_utime);
  cost.sys_s = seconds(usage.ru_stime);
#endif
  return cost;
}

/// Returns `cell()` computed in a forked child (Linux; in process
/// elsewhere). The result comes back over a pipe as raw bytes, so it must
/// be trivially copyable. A failed fork, pipe or child yields a
/// value-initialized Result; so does a cell that throws, whose exception
/// the child prints to stderr before it exits. The child never returns
/// into the caller's code.
template <typename Result, typename Cell>
Result run_in_child(Cell cell) {
  static_assert(std::is_trivially_copyable_v<Result>);
#if defined(__linux__)
  int fds[2];
  if (pipe(fds) != 0) return Result{};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Result{};
  }
  if (pid == 0) {
    close(fds[0]);
    bool ok = false;
    try {
      const Result r = cell();
      ok = write(fds[1], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run_in_child: cell threw: %s\n", e.what());
    } catch (...) {
      std::fprintf(stderr, "run_in_child: cell threw a non-std exception\n");
    }
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  Result r{};
  const bool got = read(fds[0], &r, sizeof r) == static_cast<ssize_t>(sizeof r);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return Result{};
  return r;
#else
  return cell();
#endif
}

}  // namespace ab::bench
