// Samples a process from outside through /proc: CPU time (process and
// per thread), peak RSS, block-layer write bytes and thread count.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>

namespace lo::lsbench {

struct ProcSample {
  bool ok = false;
  int64_t cpu_ticks = 0;                 // stat: utime + stime
  std::map<int, int64_t> thread_ticks;   // task/<tid>/stat: utime + stime
  uint64_t write_bytes = 0;              // io: write_bytes
  uint64_t vm_hwm_kb = 0;                // status: VmHWM
  int threads = 0;                       // status: Threads
};

/// Reads /proc/<pid>/{stat,status,io,task/*/stat}. Missing files leave
/// their fields at 0; `ok` is false only when stat itself is unreadable.
ProcSample ReadProc(pid_t pid);

double TicksToMs(int64_t ticks);

/// Machine-wide CPU time from /proc/stat: all ticks and the ticks the
/// hypervisor stole (time a vCPU wanted to run but did not).
struct HostCpu {
  int64_t total = 0;
  int64_t steal = 0;
};
HostCpu ReadHostCpu();

/// Largest per-thread CPU delta between two samples as a share of the
/// sum over all live threads (0 when they used no CPU).
double TopThreadShare(const ProcSample& before, const ProcSample& after);

}  // namespace lo::lsbench
