// Span recording from many threads without a shared lock on the hot
// path. obs::Tracer is single-threaded, so the benchmark gives every
// recording thread its own buffer (registered once, under a mutex) and
// merges the buffers after those threads have stopped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.h"

namespace lo::lsbench {

/// Monotonic clock in nanoseconds (the clock every benchmark span uses).
int64_t NowNs();

/// Chrome-trace process ids ("node" in obs::SpanRecord) by origin.
inline constexpr uint32_t kNodeClient = 1;   // load generator
inline constexpr uint32_t kNodeServer = 2;   // in-process server threads
inline constexpr uint32_t kNodeReplay = 3;   // single-threaded replay

class SpanSink {
 public:
  /// Spans past `per_thread_cap` in one thread are counted, not kept.
  explicit SpanSink(size_t per_thread_cap = 1 << 18);
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  /// Span ids come from a range no obs::Tracer reaches, so benchmark
  /// spans and tracer spans can share one trace file.
  uint64_t NewSpanId() { return next_span_id_.fetch_add(1); }

  /// Records a finished span into the calling thread's buffer; returns
  /// its span id. `name` must have static storage (a literal).
  uint64_t Record(const char* name, uint32_t node, uint64_t trace_id,
                  uint64_t parent_span_id, int64_t start_ns, int64_t end_ns);
  /// Same, with a pre-minted span id (so children can name the parent).
  void RecordWithId(uint64_t span_id, const char* name, uint32_t node,
                    uint64_t trace_id, uint64_t parent_span_id,
                    int64_t start_ns, int64_t end_ns);

  /// Every kept span. Call only once the recording threads are quiet.
  std::vector<obs::SpanRecord> Merge() const;
  uint64_t dropped() const { return dropped_.load(); }

 private:
  // Compact form (no per-span string) so a busy run's spans stay small.
  struct Span {
    const char* name;
    uint32_t node;
    uint64_t trace_id;
    uint64_t span_id;
    uint64_t parent_span_id;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  const size_t cap_;
  const uint64_t id_;
  std::atomic<uint64_t> next_span_id_{uint64_t{1} << 48};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace lo::lsbench
