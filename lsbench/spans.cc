#include "spans.h"

#include <time.h>

#include <string>

namespace lo::lsbench {

int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {
std::atomic<uint64_t> next_sink_id{1};
}  // namespace

SpanSink::SpanSink(size_t per_thread_cap)
    : cap_(per_thread_cap), id_(next_sink_id.fetch_add(1)) {}

SpanSink::Buffer* SpanSink::LocalBuffer() {
  // One cached (sink, buffer) pair per thread, keyed by the sink's
  // unique id (not its address, which a later sink may reuse); a thread
  // that records into another sink registers a fresh buffer there.
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer = fresh.get();
    buffers_.push_back(std::move(fresh));
    owner = id_;
  }
  return buffer;
}

void SpanSink::RecordWithId(uint64_t span_id, const char* name,
                            uint32_t node, uint64_t trace_id,
                            uint64_t parent_span_id, int64_t start_ns,
                            int64_t end_ns) {
  Buffer* buffer = LocalBuffer();
  if (buffer->spans.size() >= cap_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->spans.push_back(
      {name, node, trace_id, span_id, parent_span_id, start_ns, end_ns});
}

uint64_t SpanSink::Record(const char* name, uint32_t node,
                          uint64_t trace_id, uint64_t parent_span_id,
                          int64_t start_ns, int64_t end_ns) {
  uint64_t id = NewSpanId();
  RecordWithId(id, name, node, trace_id, parent_span_id, start_ns, end_ns);
  return id;
}

std::vector<obs::SpanRecord> SpanSink::Merge() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::SpanRecord> out;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      obs::SpanRecord span;
      span.trace_id = s.trace_id;
      span.span_id = s.span_id;
      span.parent_span_id = s.parent_span_id;
      span.name = s.name;
      span.node = s.node;
      span.start_ns = s.start_ns;
      span.end_ns = s.end_ns;
      out.push_back(std::move(span));
    }
  }
  return out;
}

}  // namespace lo::lsbench
