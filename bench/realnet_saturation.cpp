// A13 — per-core sharded transport: small-RPC loopback saturation.
//
// Spawns one lambdastore-server per arm and floods it with tiny "ping"
// echoes from a raw-socket pipelining loadgen (see
// bench::RunRealNetSaturation), so transport costs — syscalls, frame
// copies, reactor wakeups — dominate and the arms isolate what the
// sharded/coalesced transport changed:
//
//   baseline   1 reactor, epoll, write-per-response (the pre-sharding
//              transport behavior)
//   coalesce1  1 reactor, epoll, end-of-iteration writev coalescing
//   coalesce4  4 reactors (SO_REUSEPORT), epoll, coalescing
//
// One JSON line per arm:
//   {"experiment":"A13","arm":"coalesce4","net_threads":4,
//    "flush":"coalesce","connections":4,"window":64,
//    "rpcs_per_sec":...,"p50_us":...,"p99_us":...,
//    "syscalls_per_rpc":...,"completed":...,"errors":...}
//
// --smoke (the realnet_smoke ctest): shortened windows, runs the
// baseline and coalesce4 arms, and fails if the coalesced writev path
// spends >= 1.5 syscalls per RPC — the regression guard on the flush
// coalescing this PR exists for.
#include <string.h>

#include <cstdio>

#include "bench/harness.h"

namespace {

struct Arm {
  const char* name;
  int net_threads;
  bool coalesce;
};

lo::bench::SaturationResult RunArm(const Arm& arm,
                                   const lo::bench::SaturationConfig& base) {
  lo::bench::SaturationConfig config = base;
  config.net_threads = arm.net_threads;
  config.coalesce = arm.coalesce;
  lo::bench::SaturationResult result = lo::bench::RunRealNetSaturation(config);
  std::printf(
      "{\"experiment\":\"A13\",\"arm\":\"%s\",\"net_threads\":%d,"
      "\"flush\":\"%s\",\"connections\":%d,\"window\":%d,"
      "\"rpcs_per_sec\":%.0f,\"p50_us\":%.0f,\"p99_us\":%.0f,"
      "\"syscalls_per_rpc\":%.3f,\"completed\":%llu,\"errors\":%llu}\n",
      arm.name, result.reactors, arm.coalesce ? "coalesce" : "immediate",
      config.connections, config.window, result.rpcs_per_sec, result.p50_us,
      result.p99_us, result.syscalls_per_rpc,
      static_cast<unsigned long long>(result.completed),
      static_cast<unsigned long long>(result.errors));
  std::fflush(stdout);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  lo::bench::SaturationConfig base;
  base.connections = 4;
  base.window = 64;
  if (smoke) {
    base.warmup_s = 0.2;
    base.measure_s = 0.8;
    base.connections = 2;
  }

  const Arm kBaseline = {"baseline", 1, false};
  const Arm kCoalesce1 = {"coalesce1", 1, true};
  const Arm kCoalesce4 = {"coalesce4", 4, true};

  lo::bench::SaturationResult baseline = RunArm(kBaseline, base);
  lo::bench::SaturationResult coalesce4{};
  if (smoke) {
    coalesce4 = RunArm(kCoalesce4, base);
  } else {
    RunArm(kCoalesce1, base);
    coalesce4 = RunArm(kCoalesce4, base);
    double speedup = baseline.rpcs_per_sec > 0
                         ? coalesce4.rpcs_per_sec / baseline.rpcs_per_sec
                         : 0;
    std::printf(
        "{\"experiment\":\"A13\",\"summary\":1,\"speedup_vs_baseline\":%.2f,"
        "\"baseline_syscalls_per_rpc\":%.3f,"
        "\"coalesced_syscalls_per_rpc\":%.3f}\n",
        speedup, baseline.syscalls_per_rpc, coalesce4.syscalls_per_rpc);
  }

  // Acceptance guard: the coalesced writev path must actually coalesce.
  if (coalesce4.syscalls_per_rpc >= 1.5) {
    std::fprintf(stderr,
                 "FAIL: coalesced syscalls_per_rpc %.3f >= 1.5 "
                 "(baseline %.3f)\n",
                 coalesce4.syscalls_per_rpc, baseline.syscalls_per_rpc);
    return 1;
  }
  if (coalesce4.completed == 0 || coalesce4.errors > 0 ||
      baseline.errors > 0) {
    std::fprintf(stderr, "FAIL: errors or no completions\n");
    return 1;
  }
  return 0;
}
