// Ablation A6: MiniLSM microbenchmarks (google-benchmark, wall-clock).
// Both architectures run on this storage engine, so its write/read/scan
// paths underlie every number in Figures 1-2.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/crc32c.h"
#include "common/rng.h"
#include "storage/db.h"
#include "storage/env.h"

namespace {

using namespace lo;
using namespace lo::storage;

std::unique_ptr<DB> FreshDb(MemEnv* env, size_t write_buffer = 4 << 20) {
  Options options;
  options.env = env;
  options.write_buffer_size = write_buffer;
  return std::move(*DB::Open(options, "/bench"));
}

std::string KeyOf(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%012llu", static_cast<unsigned long long>(i));
  return buf;
}

void BM_PutSync(benchmark::State& state) {
  MemEnv env;
  auto db = FreshDb(&env);
  uint64_t i = 0;
  std::string value(100, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Put({.sync = true}, KeyOf(i++), value).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PutSync);

void BM_PutNoSync(benchmark::State& state) {
  MemEnv env;
  auto db = FreshDb(&env);
  uint64_t i = 0;
  std::string value(100, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Put({.sync = false}, KeyOf(i++), value).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PutNoSync);

void BM_BatchCommit(benchmark::State& state) {
  // The invocation-commit shape: N writes in one atomic batch.
  MemEnv env;
  auto db = FreshDb(&env);
  auto batch_size = static_cast<uint64_t>(state.range(0));
  uint64_t i = 0;
  std::string value(100, 'v');
  for (auto _ : state) {
    WriteBatch batch;
    for (uint64_t j = 0; j < batch_size; j++) batch.Put(KeyOf(i++), value);
    benchmark::DoNotOptimize(db->Write({.sync = true}, &batch).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BatchCommit)->Arg(1)->Arg(16)->Arg(256);

void BM_GetHotKeys(benchmark::State& state) {
  MemEnv env;
  auto db = FreshDb(&env);
  constexpr uint64_t kKeys = 100000;
  std::string value(100, 'v');
  for (uint64_t i = 0; i < kKeys; i++) {
    (void)db->Put({.sync = false}, KeyOf(i), value);
  }
  Rng rng(7);
  for (auto _ : state) {
    auto got = db->Get({}, KeyOf(rng.Uniform(kKeys)));
    benchmark::DoNotOptimize(got.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GetHotKeys);

void BM_GetHotZipfBlockCache(benchmark::State& state) {
  // The block-cache sweep: Zipf(0.8) point reads against table-resident
  // data, Arg = cache size in MiB (0 = off). A hit skips the Env read,
  // the CRC pass and the block parse; the sweep shows how much of the hot
  // read path that is.
  MemEnv env;
  Options options;
  options.env = &env;
  options.write_buffer_size = 1 << 20;  // data must live in tables
  options.block_cache_bytes = static_cast<size_t>(state.range(0)) << 20;
  auto db = std::move(*DB::Open(options, "/bench"));
  constexpr uint64_t kKeys = 100000;
  std::string value(100, 'v');
  for (uint64_t i = 0; i < kKeys; i++) {
    (void)db->Put({.sync = false}, KeyOf(i), value);
  }
  (void)db->CompactAll();
  ZipfGenerator zipf(kKeys, 0.8);
  Rng rng(7);
  for (auto _ : state) {
    auto got = db->Get({}, KeyOf(zipf.Sample(rng)));
    benchmark::DoNotOptimize(got.ok());
  }
  auto stats = db->GetStats();
  uint64_t lookups = stats.block_cache_hits + stats.block_cache_misses;
  state.counters["hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.block_cache_hits) /
                         static_cast<double>(lookups);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GetHotZipfBlockCache)->Arg(0)->Arg(8)->Arg(64);

void BM_GetMissBloomFiltered(benchmark::State& state) {
  MemEnv env;
  auto db = FreshDb(&env, 64 << 10);  // small buffer: data lives in tables
  std::string value(100, 'v');
  for (uint64_t i = 0; i < 20000; i++) {
    (void)db->Put({.sync = false}, KeyOf(i), value);
  }
  Rng rng(8);
  for (auto _ : state) {
    auto got = db->Get({}, "absent" + std::to_string(rng.Next()));
    benchmark::DoNotOptimize(got.status().IsNotFound());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GetMissBloomFiltered);

void BM_ScanSeekNext(benchmark::State& state) {
  MemEnv env;
  auto db = FreshDb(&env, 256 << 10);
  std::string value(100, 'v');
  for (uint64_t i = 0; i < 50000; i++) {
    (void)db->Put({.sync = false}, KeyOf(i), value);
  }
  Rng rng(9);
  for (auto _ : state) {
    auto iter = db->NewIterator({});
    iter->Seek(KeyOf(rng.Uniform(40000)));
    int n = 0;
    for (; iter->Valid() && n < 10; iter->Next()) n++;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ScanSeekNext);

void BM_RecoveryReplay(benchmark::State& state) {
  // Cost of reopening a DB whose WAL holds `range` batched writes.
  auto entries = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    MemEnv env;
    {
      auto db = FreshDb(&env, 64 << 20);  // keep everything in the WAL
      std::string value(100, 'v');
      for (uint64_t i = 0; i < entries; i++) {
        (void)db->Put({.sync = i + 1 == entries}, KeyOf(i), value);
      }
    }
    state.ResumeTiming();
    auto db = FreshDb(&env, 64 << 20);
    benchmark::DoNotOptimize(db.get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RecoveryReplay)->Arg(1000)->Arg(10000);

void BM_Crc32c(benchmark::State& state) {
  // The checksum every block, WAL record and frame is verified with;
  // Arg = bytes (a 4 KiB data block, a 128 KiB filter block).
  Rng rng(10);
  std::string data = rng.Bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(131072);

}  // namespace

BENCHMARK_MAIN();
