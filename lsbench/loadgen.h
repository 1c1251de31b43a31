// The benchmark's load generator: one process, one net::RpcClient (one
// loop thread, one connection to the server) driving `lambda.invoke`
// asynchronously. A closed loop keeps a fixed number of requests in
// flight; an open loop sends on a seeded Poisson schedule from the
// calling thread and times each job from when it was due. Every reply is
// checked (checker.h) on the RpcClient's loop thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "checker.h"
#include "common/rng.h"
#include "model.h"
#include "net/rpc_client.h"
#include "retwis/workload.h"
#include "spans.h"

namespace lo::lsbench {

struct WorkloadSpec {
  const char* name;
  uint64_t users;
  bool open_loop;
  size_t outstanding;   // closed loop: requests kept in flight
  double rate;          // open loop: offered jobs per second
  double post_share;    // the rest of post/follow is get_timeline
  double follow_share;
  bool zipf_reads;      // get_timeline targets Zipf(0.8) instead of uniform
  bool read_only;       // replies must equal the seeded state
  bool probes;          // a read-your-writes probe after every acked post
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);
retwis::WorkloadConfig ConfigFor(const WorkloadSpec& spec, uint64_t seed);

enum class Op : uint8_t { kTimeline, kPost, kFollow, kProbe, kPing };

/// One request as sent, kept for the traced run's replay.
struct SentRequest {
  std::string oid;
  std::string method;
  std::string argument;
};

struct PhaseStats {
  double seconds = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;      // start + seconds: no job is issued after it
  int64_t drained_ns = 0;  // every reply of the phase is in
  uint64_t jobs = 0;       // scheduled jobs issued (probes excluded)
  uint64_t write_jobs = 0;
  uint64_t probes = 0;
  uint64_t pings = 0;
  uint64_t jobs_ok_in_window = 0;  // checked OK and done by end_ns
  Tally tally;       // jobs + probes
  Tally ping_tally;
  std::vector<double> latency_ms;  // every job
  std::vector<double> read_ms;     // get_timeline jobs
  std::vector<double> write_ms;    // create_post + follow jobs
  std::vector<double> ping_us;
  std::vector<double> late_ms;     // send time - due time
  std::vector<SentRequest> requests;  // jobs and probes, when recorded

  uint64_t requests_sent() const { return jobs + probes; }
};

class LoadGenerator {
 public:
  /// Call deadline; a reply later than this counts as a timeout.
  static constexpr int64_t kCallTimeoutUs = 10'000'000;
  /// One ping per this many jobs.
  static constexpr uint64_t kPingEvery = 64;

  /// `spans` may be null (untraced runs). `rpc` must connect to nothing
  /// but `address`, so the whole run uses one connection.
  LoadGenerator(const WorkloadSpec& spec, const Model& model, uint64_t seed,
                net::RpcClient* rpc, std::string address, SpanSink* spans);
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Issues jobs for `seconds`, then waits for every reply. Generator
  /// state (RNG streams, follower counts) carries over between phases.
  PhaseStats RunPhase(double seconds, bool record_requests);

 private:
  struct Pending {
    Op op = Op::kTimeline;
    uint64_t id = 0;        // job number = trace id
    uint64_t seq = 0;       // scheduled-job number (seed-determined)
    uint32_t user = 0;
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    uint64_t lo = 0;        // lowest follower count the reply may carry
    std::string message;    // post: its message; probe: the one to find
    std::string service;
    std::string payload;
  };

  // All Make*/On* helpers run under mu_.
  Pending MakeJob(int64_t due_ns);
  Pending MakeProbe(const Pending& post);
  Pending MakePing();
  void Send(Pending p);
  void OnReply(Pending p, Result<std::string> reply);
  uint64_t SeededFollowers(uint32_t user) const;

  const WorkloadSpec& spec_;
  const Model& model_;
  const uint64_t seed_;
  retwis::Workload workload_;
  net::RpcClient* rpc_;
  const std::string address_;
  SpanSink* spans_;

  std::mutex mu_;
  std::condition_variable drained_cv_;
  Rng request_rng_;
  Rng op_rng_;
  Rng arrival_rng_;
  uint64_t next_id_ = 0;
  uint64_t jobs_made_ = 0;
  uint64_t next_ping_ = 0;
  size_t outstanding_ = 0;
  bool recording_ = false;
  std::vector<uint32_t> follows_sent_;
  std::vector<uint32_t> follows_acked_;
  PhaseStats phase_;
};

}  // namespace lo::lsbench
