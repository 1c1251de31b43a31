// lambdastore-coordinator: the cluster control plane as a real process.
//
// Hosts clusterd::CoordinatorServer — owns the authoritative versioned
// ClusterView (coord::ClusterState microshard directory + node address
// book), registers lambdastore-server processes as they come up,
// collects their per-window load reports, and drives the Akkio-style
// rebalancer: when one node's load exceeds --skew times the mean it
// orders live migrations of that node's hottest objects toward the
// coldest node.
//
// Flags:
//   --port=N                listen port; 0 = ephemeral (default)
//   --hash-servers=N        size of the pinned hash space (default 1);
//                           set to the *initial* server count so elastic
//                           add-a-node never remaps hash placements
//   --rebalance-interval-ms=N  rebalancer cadence (default 500)
//   --skew=F                hottest/mean load ratio that triggers a
//                           round (default 2.0)
//   --min-requests=N        per-window cluster total below which the
//                           rebalancer stays idle (default 50)
//   --migrations-per-round=N  hottest objects moved per round (default 4)
//   --no-rebalance          disable the rebalancer (manual migration only)
//
// An unknown flag or a malformed number prints "bad flag: <flag>" and
// exits 2.
//
// Prints "READY port=<p>" once listening; exits 0 on SIGINT/SIGTERM or
// an "admin.shutdown" RPC.
#include <signal.h>
#include <stdio.h>
#include <string.h>

#include <cstdint>
#include <string>

#include "clusterd/coordinator.h"
#include "flags.h"

namespace {

using lo::flags::BadFlag;
using lo::flags::ParseFlag;
using lo::flags::ParseNumber;

struct Flags {
  uint16_t port = 0;
  uint32_t hash_servers = 1;
  int64_t rebalance_interval_ms = 500;
  double skew = 2.0;
  uint64_t min_requests = 50;
  size_t migrations_per_round = 4;
  bool rebalance = true;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string value;
    if (ParseFlag(argv[i], "port", &value)) {
      ParseNumber(argv[i], value, &flags.port);
    } else if (ParseFlag(argv[i], "hash-servers", &value)) {
      ParseNumber(argv[i], value, &flags.hash_servers);
    } else if (ParseFlag(argv[i], "rebalance-interval-ms", &value)) {
      ParseNumber(argv[i], value, &flags.rebalance_interval_ms);
    } else if (ParseFlag(argv[i], "skew", &value)) {
      ParseNumber(argv[i], value, &flags.skew);
    } else if (ParseFlag(argv[i], "min-requests", &value)) {
      ParseNumber(argv[i], value, &flags.min_requests);
    } else if (ParseFlag(argv[i], "migrations-per-round", &value)) {
      ParseNumber(argv[i], value, &flags.migrations_per_round);
    } else if (strcmp(argv[i], "--no-rebalance") == 0) {
      flags.rebalance = false;
    } else {
      BadFlag(argv[i]);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  sigset_t sigmask;
  sigemptyset(&sigmask);
  sigaddset(&sigmask, SIGINT);
  sigaddset(&sigmask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigmask, nullptr);

  lo::clusterd::CoordinatorServerOptions options;
  options.port = flags.port;
  options.hash_servers = flags.hash_servers;
  options.rebalance_enabled = flags.rebalance;
  options.rebalance_interval_ms = flags.rebalance_interval_ms;
  options.rebalance_skew = flags.skew;
  options.rebalance_min_requests = flags.min_requests;
  options.migrations_per_round = flags.migrations_per_round;

  lo::clusterd::CoordinatorServer coordinator(options);
  lo::Status started = coordinator.Start();
  if (!started.ok()) {
    fprintf(stderr, "coordinator start: %s\n", started.ToString().c_str());
    return 1;
  }
  printf("READY port=%u\n", coordinator.port());
  fflush(stdout);

  struct timespec poll_interval = {0, 50'000'000};  // 50ms
  while (!coordinator.shutdown_requested()) {
    int sig = sigtimedwait(&sigmask, nullptr, &poll_interval);
    if (sig == SIGINT || sig == SIGTERM) break;
  }
  coordinator.Shutdown();
  return 0;
}
