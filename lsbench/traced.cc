#include "traced.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "clusterd/server.h"
#include "net/rpc_client.h"
#include "obs/export.h"
#include "retwis/retwis.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "spans.h"
#include "stats.h"
#include "storage/env.h"

namespace lo::lsbench {

namespace {

constexpr size_t kReplayMax = 400;
constexpr double kReplayBudgetS = 3.0;
constexpr uint64_t kReplayTraceBase = uint64_t{1} << 44;
constexpr uint64_t kReplayRootSpanBase = uint64_t{1} << 56;
constexpr size_t kTraceFileSpansPerName = 50'000;

uint64_t ThreadId() {
  thread_local uint64_t tid = static_cast<uint64_t>(syscall(SYS_gettid));
  return tid;
}

// ------------------------------------------------------------ Env wrapper

struct EnvCounters {
  std::atomic<bool> recording{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> wal_bytes{0};
};

// While recording, every call is timed and kept as a span whose trace id
// is the calling thread's id (one Perfetto row per server thread).
class TimedCall {
 public:
  TimedCall(const EnvCounters* counters, SpanSink* sink, const char* name)
      : sink_(sink), name_(name),
        on_(counters->recording.load(std::memory_order_relaxed)),
        start_(on_ ? NowNs() : 0) {}
  ~TimedCall() {
    if (on_) sink_->Record(name_, kNodeServer, ThreadId(), 0, start_, NowNs());
  }
  bool on() const { return on_; }

 private:
  SpanSink* sink_;
  const char* name_;
  bool on_;
  int64_t start_;
};

class TracingWritableFile : public storage::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<storage::WritableFile> base, bool wal,
                      EnvCounters* counters, SpanSink* sink)
      : base_(std::move(base)), wal_(wal), counters_(counters), sink_(sink) {}
  Status Append(std::string_view data) override {
    TimedCall call(counters_, sink_, "storage.env.append");
    if (call.on() && wal_) counters_->wal_bytes.fetch_add(data.size());
    return base_->Append(data);
  }
  Status Sync() override {
    TimedCall call(counters_, sink_, "storage.env.sync");
    if (call.on()) counters_->syncs.fetch_add(1);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<storage::WritableFile> base_;
  bool wal_;
  EnvCounters* counters_;
  SpanSink* sink_;
};

class TracingRandomAccessFile : public storage::RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<storage::RandomAccessFile> base,
                          EnvCounters* counters, SpanSink* sink)
      : base_(std::move(base)), counters_(counters), sink_(sink) {}
  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    TimedCall call(counters_, sink_, "storage.env.read");
    if (call.on()) counters_->reads.fetch_add(1);
    return base_->Read(offset, n, out);
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<storage::RandomAccessFile> base_;
  EnvCounters* counters_;
  SpanSink* sink_;
};

class TracingEnv : public storage::Env {
 public:
  TracingEnv(storage::Env* base, EnvCounters* counters, SpanSink* sink)
      : base_(base), counters_(counters), sink_(sink) {}

  Result<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Wrap(path, base_->NewWritableFile(path));
  }
  Result<std::unique_ptr<storage::WritableFile>> NewWritableFile(
      const std::string& path, const storage::WritableFileOptions& opts) override {
    return Wrap(path, base_->NewWritableFile(path, opts));
  }
  Result<std::unique_ptr<storage::RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    LO_ASSIGN_OR_RETURN(auto file, base_->NewRandomAccessFile(path));
    return std::unique_ptr<storage::RandomAccessFile>(
        new TracingRandomAccessFile(std::move(file), counters_, sink_));
  }
  Result<std::unique_ptr<storage::SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return base_->NewSequentialFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }

 private:
  Result<std::unique_ptr<storage::WritableFile>> Wrap(
      const std::string& path,
      Result<std::unique_ptr<storage::WritableFile>> file) {
    if (!file.ok()) return file.status();
    // MiniLSM names its write-ahead logs <number>.log.
    bool wal = path.size() >= 4 && path.compare(path.size() - 4, 4, ".log") == 0;
    return std::unique_ptr<storage::WritableFile>(
        new TracingWritableFile(std::move(*file), wal, counters_, sink_));
  }

  storage::Env* base_;
  EnvCounters* counters_;
  SpanSink* sink_;
};

// ----------------------------------------------------- public getters

struct NodeCounters {
  std::vector<uint64_t> lane_executed;
  uint64_t lock_waits = 0;
  uint64_t fuel = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t gc_commits = 0;
  uint64_t gc_groups = 0;
  storage::DB::Stats db;
};

NodeCounters Capture(runtime::ParallelNode& node, storage::DB* db) {
  node.Drain();  // lane runtimes may only be read while idle
  NodeCounters c;
  for (size_t i = 0; i < node.lanes(); i++) {
    c.lane_executed.push_back(node.lane_executed(i));
    const runtime::Runtime& rt = node.lane_runtime(i);
    c.lock_waits += rt.metrics().lock_waits;
    c.fuel += rt.metrics().fuel_executed;
    c.cache_hits += rt.cache_stats().hits;
    c.cache_misses += rt.cache_stats().misses;
    c.cache_invalidations += rt.cache_stats().invalidations;
  }
  auto gc = node.committer().stats();
  c.gc_commits = gc.commits;
  c.gc_groups = gc.groups;
  c.db = db->GetStats();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------- replay

struct ReplayOutcome {
  uint64_t replayed = 0;
  uint64_t failures = 0;
};

// Replays `sample` one request at a time through a lane-like Runtime
// (one internal lane, commits written and synced directly, nested
// calls recursing locally) that records vm_exec and commit spans. The
// Runtime stamps spans with its simulator's clock, which the replay
// drives from measured wall time: a commit advances it by the wall time
// of its DB write + sync, and the CPU charger — called once an
// invocation has run — by the invocation's wall time minus its commits
// and nested calls. So `commit` is the durable write and `vm_exec` the
// method's own execution, storage reads included.
ReplayOutcome Replay(storage::DB* db, const runtime::TypeRegistry* types,
                     const std::vector<SentRequest>& sample,
                     obs::Tracer* tracer) {
  sim::Simulator sim;
  runtime::RuntimeOptions options;
  options.lanes = 1;
  options.tracer = tracer;
  options.node_label = kNodeReplay;
  runtime::Runtime rt(&sim, db, types, options);

  struct Frame {
    int64_t start_ns;
    int64_t excluded_ns;
  };
  std::vector<Frame> frames;
  auto advance = [&sim](int64_t d) { sim.RunUntil(sim.Now() + d); };

  rt.SetCommitSink([&](const runtime::ObjectId&, storage::WriteBatch batch,
                       obs::TraceContext trace) -> sim::Task<Status> {
    int64_t t = NowNs();
    Status s = db->Write({.sync = true, .trace = trace}, &batch);
    int64_t d = NowNs() - t;
    frames.back().excluded_ns += d;
    advance(d);
    co_return s;
  });
  rt.SetCpuCharger([&](uint64_t) -> sim::Task<void> {
    Frame& f = frames.back();
    int64_t d = std::max<int64_t>(0, NowNs() - f.start_ns - f.excluded_ns);
    f.excluded_ns += d;
    advance(d);
    co_return;
  });
  rt.SetRemoteInvoker([&](runtime::ObjectId oid, std::string method,
                          std::string argument, obs::TraceContext trace)
                          -> sim::Task<Result<std::string>> {
    int64_t t = NowNs();
    frames.push_back({t, 0});
    auto result = co_await rt.Invoke(std::move(oid), std::move(method),
                                     std::move(argument), trace);
    frames.pop_back();
    frames.back().excluded_ns += NowNs() - t;
    co_return result;
  });

  ReplayOutcome out;
  int64_t deadline = NowNs() + static_cast<int64_t>(kReplayBudgetS * 1e9);
  for (size_t i = 0; i < sample.size() && NowNs() < deadline; i++) {
    const SentRequest& request = sample[i];
    int64_t t0 = NowNs();
    sim.RunUntil(std::max(sim.Now(), t0));
    int64_t sim_start = sim.Now();
    obs::TraceContext root;
    root.trace_id = kReplayTraceBase + i + 1;
    root.span_id = kReplayRootSpanBase + i + 1;
    frames.push_back({t0, 0});
    auto result = runtime::RunSync(
        rt.Invoke(request.oid, request.method, request.argument, root));
    frames.pop_back();
    sim.RunUntil(std::max(sim.Now(), sim_start + (NowNs() - t0)));
    tracer->Record(root, "runtime.invoke", kNodeReplay, sim_start, sim.Now());
    out.replayed++;
    if (!result.ok()) out.failures++;
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<obs::SpanRecord>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
  }
  return out;
}

Status WriteTraceFile(const std::vector<obs::SpanRecord>& spans,
                      const std::string& path) {
  // Bounded per name so a busy run still gives a file Perfetto opens.
  std::vector<obs::SpanRecord> kept;
  std::map<std::string, size_t> per_name;
  for (const auto& s : spans) {
    if (per_name[s.name]++ < kTraceFileSpansPerName) kept.push_back(s);
  }
  std::ofstream out(path);
  out << obs::ExportChromeTrace(kept);
  if (!out) return Status::IOError("write " + path);
  return Status::OK();
}

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); i++) index[spans[i].span_id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent_span_id == 0) continue;
    auto it = index.find(s.parent_span_id);
    if (it == index.end() || spans[it->second].trace_id != s.trace_id) continue;
    children[it->second].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::string SpanTable(const std::vector<obs::SpanRecord>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (size_t i = 0; i < spans.size(); i++) {
    auto& entry = by_name[spans[i].name];
    entry.first.push_back(static_cast<double>(spans[i].duration_ns()) / 1e3);
    entry.second.push_back(static_cast<double>(self[i]) / 1e3);
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-22s %8s %11s %15s %12s %12s\n", "span",
                "count", "p50_us", "p99_us", "self_p50_us", "self_sum_ms");
  out += buf;
  for (auto& [name, values] : by_name) {
    Quantile p50 = ExactQuantile(values.first, 0.50);
    Quantile p99 = ExactQuantile(values.first, 0.99);
    Quantile self50 = ExactQuantile(values.second, 0.50);
    double self_sum = 0;
    for (double v : values.second) self_sum += v;
    std::snprintf(buf, sizeof(buf), "%-22s %8zu %11.1f %9.1f(%s) %12.1f %12.1f\n",
                  name.c_str(), values.first.size(), p50.value, p99.value,
                  p99.Label().c_str(), self50.value, self_sum / 1e3);
    out += buf;
  }
  return out;
}

Result<TracedResult> RunTraced(const WorkloadSpec& spec, const Model& model,
                               const std::string& image_dir,
                               const std::string& work_dir, uint64_t seed,
                               double warmup_s, double seconds,
                               const std::string& trace_path) {
  std::string db_dir = work_dir + "/traced-db";
  LO_RETURN_IF_ERROR(CopyTree(ImageDbDir(image_dir), db_dir));

  SpanSink sink;
  EnvCounters env_counters;
  storage::PosixEnv posix_env;
  TracingEnv env(&posix_env, &env_counters, &sink);
  // The binary's DB options: PosixEnv under --db, shared by lanes and
  // the committer.
  storage::Options db_options;
  db_options.env = &env;
  db_options.serialize_access = true;
  LO_ASSIGN_OR_RETURN(auto db, storage::DB::Open(db_options, db_dir));

  runtime::TypeRegistry types;
  LO_RETURN_IF_ERROR(retwis::RegisterUserType(&types, /*use_vm=*/true));

  TracedResult out;
  PhaseStats measured;
  NodeCounters before, after;
  {
    // lambdastore-server's flag defaults leave every option at its
    // default (8 lanes, 1 reactor, result cache on, standalone).
    clusterd::ServerNode node(db.get(), &types, clusterd::ServerNodeOptions{});
    LO_RETURN_IF_ERROR(node.Start());
    std::string address = "127.0.0.1:" + std::to_string(node.port());

    net::RpcClient rpc;
    LoadGenerator generator(spec, model, seed, &rpc, address, &sink);
    PhaseStats warm = generator.RunPhase(warmup_s, false);
    out.tally.Merge(warm.tally);
    before = Capture(node.node(), db.get());
    env_counters.recording = true;
    measured = generator.RunPhase(seconds, true);
    env_counters.recording = false;
    after = Capture(node.node(), db.get());
    out.tally.Merge(measured.tally);
    rpc.Stop();
    node.Shutdown();
  }

  double requests = static_cast<double>(measured.requests_sent());
  out.requests = measured.requests_sent();
  out.throughput_jobs_s =
      static_cast<double>(measured.jobs_ok_in_window) / measured.seconds;

  auto& m = out.metrics;
  uint64_t executed = 0;
  uint64_t top_lane = 0;
  for (size_t i = 0; i < after.lane_executed.size(); i++) {
    uint64_t d = after.lane_executed[i] - before.lane_executed[i];
    executed += d;
    top_lane = std::max(top_lane, d);
  }
  m["runtime.lane_max_share"] = Ratio(top_lane, executed);
  m["runtime.invocations_per_job"] = Ratio(executed, requests);
  m["runtime.lock_waits_per_job"] =
      Ratio(after.lock_waits - before.lock_waits, requests);
  double hits = after.cache_hits - before.cache_hits;
  double misses = after.cache_misses - before.cache_misses;
  m["runtime.result_cache_hit_ratio"] = Ratio(hits, hits + misses);
  m["runtime.cache_invalidations_per_write"] =
      Ratio(after.cache_invalidations - before.cache_invalidations,
            measured.write_jobs);
  m["vm.fuel_per_job"] = Ratio(after.fuel - before.fuel, requests);
  m["storage.gets_per_job"] = Ratio(after.db.gets - before.db.gets, requests);
  double bc_hits = after.db.block_cache_hits - before.db.block_cache_hits;
  double bc_misses = after.db.block_cache_misses - before.db.block_cache_misses;
  m["storage.block_cache_hit_ratio"] = Ratio(bc_hits, bc_hits + bc_misses);
  m["storage.commits_per_group"] = Ratio(after.gc_commits - before.gc_commits,
                                         after.gc_groups - before.gc_groups);
  m["storage.compaction_bytes_per_job"] =
      Ratio(after.db.compaction_bytes_written - before.db.compaction_bytes_written,
            requests);
  m["storage.stall_us_per_job"] =
      Ratio(after.db.stall_us - before.db.stall_us, requests);
  m["storage.env_reads_per_job"] = Ratio(env_counters.reads.load(), requests);
  m["storage.fsyncs_per_job"] = Ratio(env_counters.syncs.load(), requests);
  m["storage.wal_bytes_per_job"] = Ratio(env_counters.wal_bytes.load(), requests);

  std::vector<obs::SpanRecord> spans = sink.Merge();
  auto& q = out.quantiles;
  q["storage.env_read_us_p50"] =
      ExactQuantile(DurationsUs(spans, "storage.env.read"), 0.50);
  std::vector<double> syncs = DurationsUs(spans, "storage.env.sync");
  q["storage.fsync_us_p50"] = ExactQuantile(syncs, 0.50);
  q["storage.fsync_us_p99"] = ExactQuantile(syncs, 0.99);

  // Replay a sample of the measured requests, spread evenly over them.
  std::vector<SentRequest> sample;
  size_t stride = std::max<size_t>(1, measured.requests.size() / kReplayMax);
  for (size_t i = 0; i < measured.requests.size(); i += stride) {
    sample.push_back(measured.requests[i]);
  }
  obs::TracerOptions tracer_options;
  tracer_options.ring_capacity = 1 << 20;
  obs::Tracer tracer(tracer_options);
  ReplayOutcome replay = Replay(db.get(), &types, sample, &tracer);
  out.replayed = replay.replayed;
  out.replay_failures = replay.failures;
  std::vector<obs::SpanRecord> replay_spans = tracer.Spans();
  std::vector<double> invoke = DurationsUs(replay_spans, "runtime.invoke");
  q["runtime.invoke_us_p50"] = ExactQuantile(invoke, 0.50);
  q["runtime.invoke_us_p99"] = ExactQuantile(invoke, 0.99);
  q["runtime.commit_us_p50"] =
      ExactQuantile(DurationsUs(replay_spans, "commit"), 0.50);
  q["vm.exec_us_p50"] = ExactQuantile(DurationsUs(replay_spans, "vm_exec"), 0.50);

  spans.insert(spans.end(), replay_spans.begin(), replay_spans.end());
  out.spans = spans.size();
  out.spans_dropped = sink.dropped();
  out.table = SpanTable(spans);
  LO_RETURN_IF_ERROR(WriteTraceFile(spans, trace_path));
  return out;
}

}  // namespace lo::lsbench
