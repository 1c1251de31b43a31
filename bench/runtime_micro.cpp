// Runtime microbenchmarks (google-benchmark, wall-clock): the per-job
// bookkeeping of the consistent result cache (§4.2.2), measured without
// a server around it.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/object.h"
#include "runtime/result_cache.h"

namespace {

using namespace lo;
using namespace lo::runtime;

// The timeline_cold shape: a full 4,096-entry cache where every lookup
// misses, so each job pays one miss, one insert and one LRU eviction.
// Each entry reads 12 keys (its user's timeline length plus 11 posts
// drawn from 100k, so hot posts are shared) and caches a 1.2 KB reply.
// `heap_bytes_per_entry` is the full cache's glibc heap use (output
// included) divided by its entries.
void BM_ResultCacheMissInsertEvict(benchmark::State& state) {
  constexpr size_t kCapacity = 4096;
  constexpr size_t kJobs = 4 * kCapacity;  // cycled: a key is long evicted
  Rng rng(1);
  std::vector<std::string> keys;
  std::vector<std::vector<ReadSetEntry>> reads(kJobs);
  for (size_t i = 0; i < kJobs; i++) {
    std::string user = "user/" + std::to_string(i);
    keys.push_back(ResultCache::MakeKey(user, "get_timeline", "10"));
    reads[i].push_back({ListLenKey(user, "timeline"), i});
    for (int p = 0; p < 11; p++) {
      std::string post = "post/" + std::to_string(rng.Uniform(100000));
      reads[i].push_back({FieldKey(post, "body"), i});
    }
  }
  const std::string output(1200, 'o');
  size_t heap_before = mallinfo2().uordblks;
  ResultCache cache(kCapacity);
  for (size_t i = 0; i < kCapacity; i++) cache.Insert(keys[i], output, reads[i]);
  state.counters["heap_bytes_per_entry"] =
      static_cast<double>(mallinfo2().uordblks - heap_before) / kCapacity;
  size_t next = kCapacity;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(keys[next]));
    cache.Insert(keys[next], output, reads[next]);
    next = (next + 1) % kJobs;
  }
  if (cache.stats().hits != 0) state.SkipWithError("a lookup hit");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ResultCacheMissInsertEvict);

}  // namespace

BENCHMARK_MAIN();
