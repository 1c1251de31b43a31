// The traced run: the same workload and load generator against an
// in-process clusterd::ServerNode (the class lambdastore-server hosts,
// with the binary's defaults), so the benchmark can read the layers'
// public getters and wrap the storage Env. Its timings are never used
// as end-to-end numbers; they attribute cost to layers.
//
//   * Counters: ParallelNode lanes, lane Runtime metrics and result
//     caches, the group committer and DB::GetStats, each read after
//     ParallelNode::Drain() on both sides of the measure window.
//   * Spans: job roots (trace id = job number) and client.queue /
//     net.ping from the load generator; storage.env.{read,append,sync}
//     from the Env wrapper, tagged with the server thread's id; and a
//     single-threaded replay of a sample of the same requests through a
//     runtime::Runtime with RuntimeOptions::tracer, whose vm_exec and
//     commit spans nest under the benchmark's runtime.invoke roots.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "common/status.h"
#include "loadgen.h"
#include "model.h"
#include "obs/trace.h"
#include "stats.h"

namespace lo::lsbench {

struct TracedResult {
  double throughput_jobs_s = 0;
  uint64_t requests = 0;  // jobs + probes in the measure window
  Tally tally;            // every checked reply (warm-up included)
  uint64_t replayed = 0;
  uint64_t replay_failures = 0;
  size_t spans = 0;
  uint64_t spans_dropped = 0;
  std::map<std::string, double> metrics;  // traced per-layer metrics
  std::map<std::string, Quantile> quantiles;  // traced order statistics
  std::string table;                      // per-span-name table
};

Result<TracedResult> RunTraced(const WorkloadSpec& spec, const Model& model,
                               const std::string& image_dir,
                               const std::string& work_dir, uint64_t seed,
                               double warmup_s, double seconds,
                               const std::string& trace_path);

/// Per span name: count, p50/p99 duration and p50/total self time (a
/// span's duration minus the union of its children's intervals).
std::string SpanTable(const std::vector<obs::SpanRecord>& spans);

/// Self time of every span, in the order given.
std::vector<int64_t> SelfTimesNs(const std::vector<obs::SpanRecord>& spans);

}  // namespace lo::lsbench
