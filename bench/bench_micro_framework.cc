// Microbenchmarks (google-benchmark) for the framework's hot-path
// primitives, supporting §6.3's overhead analysis and calibrating the
// CpuCostModel defaults in src/sim/cpu_cost.h:
//  - valid-folio registry insert/remove, the untrusted contains walk (§4.4)
//    and the trusted owner-tag check;
//  - eviction-list kfuncs: add/move/iterate (§4.2.2);
//  - bpf map update/lookup, LRU-hash update, ring buffer output (§4.1);
//  - xarray load/store (page-cache index);
//  - the end-to-end cached-read path with and without a no-op policy.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "src/bpf/folio_local_storage.h"
#include "src/bpf/lru_hash_map.h"
#include "src/bpf/map.h"
#include "src/bpf/ringbuf.h"
#include "src/cache_ext/eviction_list.h"
#include "src/cache_ext/registry.h"
#include "src/harness/env.h"
#include "src/mm/xarray.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"

namespace cache_ext {
namespace {

// --- Registry (per-event overhead: one insert + one remove per residency,
// one trusted check per accessed/removed event, one contains per eviction
// candidate) -----------------------------------------------------------------

void BM_RegistryInsertRemove(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  Folio folio;
  for (auto _ : state) {
    registry.Insert(&folio);
    registry.Remove(&folio);
  }
}
BENCHMARK(BM_RegistryInsertRemove);

void BM_RegistryContains(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 4096; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.Contains(folios[i++ % folios.size()].get()));
  }
}
BENCHMARK(BM_RegistryContains);

// The membership check on a trusted folio (accessed/removed hooks, list
// kfuncs): one owner-tag compare against the folio, no bucket lock.
void BM_RegistryTrustedCheck(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 4096; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.Owns(folios[i++ % folios.size()].get()));
  }
}
BENCHMARK(BM_RegistryTrustedCheck);

// --- Eviction-list kfuncs ----------------------------------------------------

void BM_ListAddDel(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  Folio folio;
  registry.Insert(&folio);
  for (auto _ : state) {
    benchmark::DoNotOptimize(api.ListAdd(list, &folio, true).ok());
    benchmark::DoNotOptimize(api.ListDel(&folio).ok());
  }
}
BENCHMARK(BM_ListAddDel);

void BM_ListMoveToHead(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 1024; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
    (void)api.ListAdd(list, folios.back().get(), true);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        api.ListMove(list, folios[i++ % folios.size()].get(), false).ok());
  }
}
BENCHMARK(BM_ListMoveToHead);

void BM_ListIterateScore512(benchmark::State& state) {
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 1024; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
    (void)api.ListAdd(list, folios.back().get(), true);
  }
  const auto iterate_once = [&] {
    EvictionCtx ctx;
    ctx.nr_candidates_requested = 32;
    IterOpts opts;
    opts.nr_scan = 512;
    opts.on_skip = IterPlacement::kMoveToTail;
    opts.on_evict = IterPlacement::kMoveToTail;
    benchmark::DoNotOptimize(
        api.ListIterateScore(list, opts, &ctx, [](Folio* folio) {
             return static_cast<int64_t>(folio->index);
           })
            .ok());
  };
  // Warm the eviction arena: the first call sizes it for this scan batch.
  iterate_once();
  const uint64_t warm_alloc_bytes = api.ArenaStats().alloc_bytes;
  for (auto _ : state) {
    iterate_once();
  }
  const EvictionArenaStats arena = api.ArenaStats();
  const uint64_t steady_alloc = arena.alloc_bytes - warm_alloc_bytes;
  // The zero-alloc claim, asserted rather than eyeballed: once the arena is
  // warm, score batches must reuse it.
  CHECK(steady_alloc == 0);
  state.counters["alloc_bytes_per_op"] = benchmark::Counter(
      static_cast<double>(steady_alloc),
      benchmark::Counter::kAvgIterations);
  state.counters["arena_capacity_bytes"] =
      static_cast<double>(arena.capacity);
}
BENCHMARK(BM_ListIterateScore512);

// The same 512-folio scored scan over a list the size of a 32 MiB cgroup
// (8192 folios) linked in shuffled order, so consecutive list entries are
// far apart in memory. Before each scan an 8 MiB buffer is read, outside
// the timed region, standing in for the page-cache traffic between two
// reclaims: it pushes the folios out of the core's private caches, as in
// a real run, where each folio is scanned once per 16 evictions. Unlike
// BM_ListIterateScore512 (1024 folios in allocation order, always cached),
// this shows the cost of reaching cold folios. Reports ns per scanned folio.
void BM_ListIterateScoreCold(benchmark::State& state) {
  constexpr int kFolios = 8192;
  constexpr uint64_t kScan = 512;
  FolioRegistry registry(1 << 16);
  CacheExtApi api(&registry);
  const uint64_t list = *api.ListCreate();
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < kFolios; ++i) {
    folios.push_back(std::make_unique<Folio>());
    folios.back()->index = static_cast<uint64_t>(i);
    registry.Insert(folios.back().get());
  }
  std::vector<Folio*> order;
  for (const auto& folio : folios) {
    order.push_back(folio.get());
  }
  Rng rng(42);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextU64Below(i + 1)]);
  }
  for (Folio* folio : order) {
    (void)api.ListAdd(list, folio, true);
  }
  std::vector<uint64_t> traffic((8u << 20) / sizeof(uint64_t), 1);
  uint64_t sink = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < traffic.size(); i += 8) {  // one load per line
      sink += traffic[i];
    }
    benchmark::DoNotOptimize(sink);
    const auto start = std::chrono::steady_clock::now();
    EvictionCtx ctx;
    ctx.nr_candidates_requested = 32;
    IterOpts opts;
    opts.nr_scan = kScan;
    opts.on_skip = IterPlacement::kMoveToTail;
    opts.on_evict = IterPlacement::kMoveToTail;
    benchmark::DoNotOptimize(
        api.ListIterateScore(list, opts, &ctx, [](Folio* folio) {
             return static_cast<int64_t>(folio->index);
           })
            .ok());
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  state.counters["ns_per_folio"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kScan),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ListIterateScoreCold)->UseManualTime();

// --- bpf primitives ------------------------------------------------------------

void BM_BpfHashMapUpdateLookup(benchmark::State& state) {
  bpf::HashMap<uint64_t, uint64_t> map(1 << 16);
  uint64_t key = 0;
  for (auto _ : state) {
    map.Update(key & 0xFFF, key);
    benchmark::DoNotOptimize(map.Lookup(key & 0xFFF));
    ++key;
  }
}
BENCHMARK(BM_BpfHashMapUpdateLookup);

// The folio-local storage counterpart of BM_BpfHashMapUpdateLookup: the
// same per-event resolution through the folio's storage slot.
void BM_FolioLocalStorageLookup(benchmark::State& state) {
  bpf::FolioLocalStorage<uint64_t> map(8192);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 4096; ++i) {
    folios.push_back(std::make_unique<Folio>());
    uint64_t* v = map.GetOrCreate(folios.back().get());
    CHECK(v != nullptr);
    *v = i;
  }
  size_t i = 0;
  for (auto _ : state) {
    uint64_t* v = map.Lookup(folios[i++ % folios.size()].get());
    if (v != nullptr) {
      benchmark::DoNotOptimize(++*v);
    }
  }
  const bpf::FolioLocalStorageStats stats = map.Stats();
  state.counters["slot_hits"] = static_cast<double>(stats.slot_hits);
  state.counters["fallback_lookups"] =
      static_cast<double>(stats.fallback_lookups);
}
BENCHMARK(BM_FolioLocalStorageLookup);

void BM_BpfLruHashUpdate(benchmark::State& state) {
  bpf::LruHashMap<uint64_t, uint64_t> map(4096);
  uint64_t key = 0;
  for (auto _ : state) {
    map.Update(key++, 1);  // wraps: constant eviction pressure
  }
}
BENCHMARK(BM_BpfLruHashUpdate);

void BM_RingBufOutput(benchmark::State& state) {
  bpf::RingBuf ringbuf(1 << 20);
  uint64_t value = 0;
  uint64_t produced = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ringbuf.OutputValue(value++));
    if (++produced % 4096 == 0) {
      ringbuf.Consume([](std::span<const uint8_t>) {});
    }
  }
}
BENCHMARK(BM_RingBufOutput);

// --- xarray ---------------------------------------------------------------------

void BM_XArrayStoreLoad(benchmark::State& state) {
  XArray xa;
  Rng rng(7);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t index = (i++ * 2654435761u) % (1 << 20);
    xa.Store(index, XEntry::FromValue(i));
    benchmark::DoNotOptimize(xa.Load(index));
  }
}
BENCHMARK(BM_XArrayStoreLoad);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  uint64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v = v * 1664525 + 1013904223);
  }
}
BENCHMARK(BM_HistogramRecord);

// --- end-to-end cached read path -------------------------------------------------

void CachedReadPath(benchmark::State& state, bool with_noop) {
  harness::Env env;
  MemCgroup* cg = env.CreateCgroup("/micro", 4096 * kPageSize);
  if (with_noop) {
    auto agent = env.AttachPolicy(cg, "noop", {});
    CHECK(agent.ok());
  }
  auto as = env.cache().OpenFile("/micro_file");
  CHECK(as.ok());
  CHECK(env.disk().Truncate((*as)->file(), 2048 * kPageSize).ok());
  Lane lane(0, TaskContext{1, 1}, 3);
  std::vector<uint8_t> buf(kPageSize);
  // Populate.
  for (uint64_t i = 0; i < 2048; ++i) {
    CHECK(env.cache()
              .Read(lane, *as, cg, i * kPageSize, std::span<uint8_t>(buf))
              .ok());
  }
  Rng rng(5);
  for (auto _ : state) {
    CHECK(env.cache()
              .Read(lane, *as, cg, rng.NextU64Below(2048) * kPageSize,
                    std::span<uint8_t>(buf))
              .ok());
  }
}

void BM_CachedReadDefault(benchmark::State& state) {
  CachedReadPath(state, false);
}
BENCHMARK(BM_CachedReadDefault);

void BM_CachedReadNoopPolicy(benchmark::State& state) {
  CachedReadPath(state, true);
}
BENCHMARK(BM_CachedReadNoopPolicy);

}  // namespace
}  // namespace cache_ext

BENCHMARK_MAIN();
