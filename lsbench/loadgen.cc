#include "loadgen.h"

#include <time.h>

#include <cstdlib>
#include <utility>

#include "clusterd/wire.h"
#include "retwis/retwis.h"

namespace lo::lsbench {

namespace {

constexpr double kNsPerMs = 1e6;

// Independent, seed-derived streams: the i-th job of a seed is the same
// whatever order replies come back in.
constexpr uint64_t kOpStream = 0x6f70ULL << 48;
constexpr uint64_t kArrivalStream = 0x6172ULL << 48;
constexpr uint64_t kProbeStream = 0x7072ULL << 48;
constexpr uint64_t kPingTraceBase = uint64_t{1} << 40;

void SleepUntilNs(int64_t t_ns) {
  struct timespec ts;
  ts.tv_sec = t_ns / 1'000'000'000;
  ts.tv_nsec = t_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

uint32_t UserIndex(const std::string& oid) {
  return static_cast<uint32_t>(std::strtoul(oid.c_str() + 5, nullptr, 10));
}

const char* SpanName(Op op) {
  switch (op) {
    case Op::kTimeline: return "job.get_timeline";
    case Op::kPost: return "job.create_post";
    case Op::kFollow: return "job.follow";
    case Op::kProbe: return "job.probe";
    case Op::kPing: return "net.ping";
  }
  return "job";
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Why each exists, and how its data compares with the server's caches,
  // is written up in README.md next to this file.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "timeline_cold", .users = 100'000, .open_loop = false,
       .outstanding = 16, .rate = 0, .post_share = 0, .follow_share = 0,
       .zipf_reads = false, .read_only = true, .probes = false},
      {.name = "post_fanout", .users = 10'000, .open_loop = false,
       .outstanding = 16, .rate = 0, .post_share = 1.0, .follow_share = 0,
       .zipf_reads = false, .read_only = false, .probes = false},
      {.name = "retwis_mix", .users = 10'000, .open_loop = true,
       .outstanding = 0, .rate = 1000, .post_share = 0.05,
       .follow_share = 0.05, .zipf_reads = true, .read_only = false,
       .probes = true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const auto& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

retwis::WorkloadConfig ConfigFor(const WorkloadSpec& spec, uint64_t seed) {
  retwis::WorkloadConfig config;
  config.num_users = spec.users;
  config.zipf_reads = spec.zipf_reads;
  config.seed = seed;
  return config;
}

LoadGenerator::LoadGenerator(const WorkloadSpec& spec, const Model& model,
                             uint64_t seed, net::RpcClient* rpc,
                             std::string address, SpanSink* spans)
    : spec_(spec),
      model_(model),
      seed_(seed),
      workload_(ConfigFor(spec, seed)),
      rpc_(rpc),
      address_(std::move(address)),
      spans_(spans),
      request_rng_(seed),
      op_rng_(seed ^ kOpStream),
      arrival_rng_(seed ^ kArrivalStream),
      follows_sent_(spec.users, 0),
      follows_acked_(spec.users, 0) {}

uint64_t LoadGenerator::SeededFollowers(uint32_t user) const {
  return model_.followers[user].size();
}

LoadGenerator::Pending LoadGenerator::MakeJob(int64_t due_ns) {
  Op op = Op::kTimeline;
  if (spec_.post_share >= 1.0) {
    op = Op::kPost;
  } else if (spec_.post_share + spec_.follow_share > 0) {
    double u = op_rng_.NextDouble();
    if (u < spec_.post_share) {
      op = Op::kPost;
    } else if (u < spec_.post_share + spec_.follow_share) {
      op = Op::kFollow;
    }
  }
  retwis::OpType type = op == Op::kPost     ? retwis::OpType::kPost
                        : op == Op::kFollow ? retwis::OpType::kFollow
                                            : retwis::OpType::kGetTimeline;
  retwis::Request request = workload_.Next(type, request_rng_);
  Pending p;
  p.op = op;
  p.id = ++next_id_;
  p.seq = ++jobs_made_;
  p.user = UserIndex(request.oid);
  p.due_ns = due_ns;
  if (op == Op::kPost) {
    p.lo = SeededFollowers(p.user) + follows_acked_[p.user];
    p.message = request.argument;
    phase_.write_jobs++;
  } else if (op == Op::kFollow) {
    p.lo = SeededFollowers(p.user) + follows_acked_[p.user] + 1;
    follows_sent_[p.user]++;
    phase_.write_jobs++;
  }
  p.service = "lambda.invoke";
  p.payload = clusterd::EncodeInvoke(request.oid, request.method,
                                     request.argument, {});
  if (recording_) {
    phase_.requests.push_back({std::move(request.oid), std::move(request.method),
                               std::move(request.argument)});
  }
  phase_.jobs++;
  outstanding_++;
  return p;
}

LoadGenerator::Pending LoadGenerator::MakeProbe(const Pending& post) {
  // Probe one seeded follower of the author (the author itself when it
  // has none): its timeline must now hold the acknowledged post.
  const auto& followers = model_.followers[post.user];
  uint32_t target = post.user;
  if (!followers.empty()) {
    Rng pick(seed_ ^ kProbeStream ^ (post.seq * 0x9e3779b97f4a7c15ULL));
    target = followers[pick.Uniform(followers.size())];
  }
  Pending p;
  p.op = Op::kProbe;
  p.id = ++next_id_;
  p.user = target;
  p.due_ns = NowNs();
  p.message = post.message;
  std::string oid = workload_.UserId(target);
  std::string limit = retwis::EncodeU64(kTimelineLimit);
  p.service = "lambda.invoke";
  p.payload = clusterd::EncodeInvoke(oid, "get_timeline", limit, {});
  if (recording_) phase_.requests.push_back({oid, "get_timeline", limit});
  phase_.probes++;
  outstanding_++;
  return p;
}

LoadGenerator::Pending LoadGenerator::MakePing() {
  Pending p;
  p.op = Op::kPing;
  p.id = kPingTraceBase + ++next_ping_;
  p.due_ns = NowNs();
  p.service = "ping";
  p.payload = retwis::EncodeU64(p.id) + retwis::EncodeU64(seed_);
  phase_.pings++;
  outstanding_++;
  return p;
}

void LoadGenerator::Send(Pending p) {
  p.sent_ns = NowNs();
  // Copied before the callback takes `p`: argument evaluation order is
  // unspecified, so reading p's fields in the same call could see them
  // already moved-from.
  std::string service = p.service;
  std::string payload = p.payload;
  rpc_->Call(address_, std::move(service), std::move(payload), kCallTimeoutUs,
             [this, p = std::move(p)](Result<std::string> reply) mutable {
               OnReply(std::move(p), std::move(reply));
             });
}

void LoadGenerator::OnReply(Pending p, Result<std::string> reply) {
  int64_t done_ns = NowNs();
  std::vector<Pending> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Verdict verdict = Verdict::kOk;
    switch (p.op) {
      case Op::kTimeline:
        verdict = CheckTimeline(
            reply, kTimelineLimit,
            spec_.read_only ? &model_.timeline_hash[p.user] : nullptr);
        break;
      case Op::kPost:
        verdict = CheckCount(reply, p.lo,
                             SeededFollowers(p.user) + follows_sent_[p.user]);
        break;
      case Op::kFollow:
        verdict = CheckCount(reply, p.lo,
                             SeededFollowers(p.user) + follows_sent_[p.user]);
        if (verdict == Verdict::kOk) follows_acked_[p.user]++;
        break;
      case Op::kProbe:
        verdict = CheckProbe(reply, kTimelineLimit, p.message);
        break;
      case Op::kPing:
        verdict = !reply.ok()         ? StatusVerdict(reply.status())
                  : *reply == p.payload ? Verdict::kOk
                                        : Verdict::kWrong;
        break;
    }
    if (p.op == Op::kPing) {
      phase_.ping_tally.Add(verdict);
      phase_.ping_us.push_back(static_cast<double>(done_ns - p.sent_ns) / 1e3);
    } else {
      phase_.tally.Add(verdict);
    }
    if (p.op != Op::kPing && p.op != Op::kProbe) {
      // Open loop: from when the job was due; closed loop: from the send.
      int64_t from = spec_.open_loop ? p.due_ns : p.sent_ns;
      double ms = static_cast<double>(done_ns - from) / kNsPerMs;
      phase_.latency_ms.push_back(ms);
      (p.op == Op::kTimeline ? phase_.read_ms : phase_.write_ms).push_back(ms);
      if (verdict == Verdict::kOk && done_ns <= phase_.end_ns) {
        phase_.jobs_ok_in_window++;
      }
      if (spec_.probes && p.op == Op::kPost && verdict == Verdict::kOk) {
        next.push_back(MakeProbe(p));
      }
      if (!spec_.open_loop && done_ns < phase_.end_ns) {
        next.push_back(MakeJob(done_ns));
        if (jobs_made_ % kPingEvery == 0) next.push_back(MakePing());
      }
    }
    outstanding_--;
    if (outstanding_ == 0) drained_cv_.notify_all();
  }
  if (spans_ != nullptr) {
    uint64_t trace_id = p.id;
    uint64_t root = spans_->NewSpanId();
    bool queued = spec_.open_loop && p.op != Op::kProbe && p.op != Op::kPing;
    spans_->RecordWithId(root, SpanName(p.op), kNodeClient, trace_id, 0,
                         queued ? p.due_ns : p.sent_ns, done_ns);
    if (queued) {
      spans_->Record("client.queue", kNodeClient, trace_id, root, p.due_ns,
                     p.sent_ns);
    }
  }
  for (auto& job : next) {
    if (job.op != Op::kPing && job.op != Op::kProbe) {
      // Closed loop: the slot freed at done_ns; any delay to the send
      // is the generator's own lateness.
      std::lock_guard<std::mutex> lock(mu_);
      phase_.late_ms.push_back(static_cast<double>(NowNs() - job.due_ns) /
                               kNsPerMs);
    }
    Send(std::move(job));
  }
}

PhaseStats LoadGenerator::RunPhase(double seconds, bool record_requests) {
  std::vector<Pending> initial;
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = PhaseStats{};
    phase_.seconds = seconds;
    phase_.start_ns = NowNs();
    phase_.end_ns = phase_.start_ns + static_cast<int64_t>(seconds * 1e9);
    recording_ = record_requests;
    if (!spec_.open_loop) {
      for (size_t i = 0; i < spec_.outstanding; i++) {
        initial.push_back(MakeJob(phase_.start_ns));
      }
    }
  }
  for (auto& job : initial) Send(std::move(job));

  if (spec_.open_loop) {
    double mean_gap_ns = 1e9 / spec_.rate;
    int64_t due = phase_.start_ns +
                  static_cast<int64_t>(arrival_rng_.Exponential(mean_gap_ns));
    while (due < phase_.end_ns) {
      SleepUntilNs(due);
      std::vector<Pending> batch;
      {
        std::lock_guard<std::mutex> lock(mu_);
        batch.push_back(MakeJob(due));
        if (jobs_made_ % kPingEvery == 0) batch.push_back(MakePing());
        phase_.late_ms.push_back(static_cast<double>(NowNs() - due) / kNsPerMs);
      }
      for (auto& job : batch) Send(std::move(job));
      due += static_cast<int64_t>(arrival_rng_.Exponential(mean_gap_ns));
    }
  } else {
    SleepUntilNs(phase_.end_ns);
  }

  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
  phase_.drained_ns = NowNs();
  recording_ = false;
  return std::move(phase_);
}

}  // namespace lo::lsbench
