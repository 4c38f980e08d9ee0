// Per-cgroup counters and gauges: the one table every layer bumps.
//
// Each row of CACHE_EXT_CGROUP_COUNTERS defines one uint64_t counter: its
// name (also the name of the CgroupCacheStats field that reports it), unit,
// owning layer and a one-line doc. Everything else is generated from the
// table: the CgroupCounter index, the descriptor array, the relaxed-atomic
// storage each cgroup owns (and hands to its reclaim and writeback control
// blocks), the CgroupCacheStats fields and snapshot loop, and the bench
// counter tables. A new counter is one row plus its bump site. The kernel
// analogue is memory.stat, printed from the memory_stats[] table
// (mm/memcontrol.c).
//
// Rows are cumulative counters unless the doc says gauge (a live value that
// also goes down) or high-water mark (only ever raised). The ns rows
// attribute time to whoever pays it: ext_direct_reclaim_ns and
// ext_dirty_throttle_ns are stalls of allocating and writing tasks (the
// PSI-visible cost), ext_background_reclaim_ns and ext_writeback_ns the
// same kind of work on the cgroup's own reclaimer and flusher lanes.
// Non-counter state — flags, lane health, per-hook arrays — stays
// hand-written in CgroupCacheStats (src/pagecache/page_cache.h).

#ifndef SRC_CGROUP_COUNTERS_H_
#define SRC_CGROUP_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cache_ext {

enum class CounterUnit : uint8_t { kCount, kPages, kBytes, kNs };

// The layer that bumps a counter. kPolicy rows are the attached policy's own
// PolicyRuntimeCounters (src/pagecache/eviction.h): the page cache folds
// them into the cgroup's storage at detach and overlays the live
// attachment's values on every snapshot.
enum class CounterLayer : uint8_t {
  kPageCache,
  kCacheExt,
  kPolicy,
  kReclaim,
  kWriteback,
};

// X(name, unit, layer, doc)
#define CACHE_EXT_CGROUP_COUNTERS(X)                                          \
  X(direct_reads, kPages, kPageCache,                                         \
    "pages read uncached because the admission filter declined them")         \
  X(direct_writes, kPages, kPageCache,                                        \
    "pages written uncached because the admission filter declined them")      \
  X(readahead_pages, kPages, kPageCache, "pages admitted by readahead")       \
  X(invalidations, kCount, kPageCache,                                        \
    "folios removed in circumvention of eviction (truncate, DONTNEED)")       \
  X(ext_lockless_lookups, kCount, kPageCache,                                 \
    "hit lookups tried without the mapping stripe (EBR fast path)")           \
  X(ext_lockless_retries, kCount, kPageCache,                                 \
    "lockless lookups that lost a race and retried on the locked path")       \
  X(ext_readahead_clamped, kCount, kPageCache,                                \
    "policy readahead windows cut down to max_readahead_pages")               \
  X(ext_order_folios, kCount, kPageCache, "multi-order folios admitted")      \
  X(ext_order_pages, kPages, kPageCache,                                      \
    "pages spanned by the admitted multi-order folios")                       \
  X(ext_order_fallbacks, kCount, kPageCache,                                  \
    "nonzero admit_order requests demoted to order 0")                        \
  X(ext_order_splits, kCount, kPageCache,                                     \
    "multi-order folios split to order 0 by a partial invalidate")            \
  X(fallback_evictions, kCount, kCacheExt,                                    \
    "folios evicted by the default-policy fallback")                          \
  X(ext_violations, kCount, kCacheExt,                                        \
    "invalid eviction candidates of the current attachment")                  \
  X(rejected_at_load, kCount, kCacheExt,                                      \
    "policies the load-time verifier rejected before attach")                 \
  X(ext_map_lookups, kCount, kPolicy,                                         \
    "per-folio metadata resolutions that paid a hash probe")                  \
  X(ext_local_storage_hits, kCount, kPolicy,                                  \
    "per-folio metadata resolutions served by a folio-embedded slot")         \
  X(ext_evict_alloc_bytes, kBytes, kPolicy,                                   \
    "heap bytes the eviction scoring path allocated")                         \
  X(ext_evict_arena_reuses, kCount, kPolicy,                                  \
    "eviction rounds served from the reused scoring arena")                   \
  X(ext_ir_jit_compiles, kCount, kPolicy,                                     \
    "IR hooks lowered to native closures")                                    \
  X(ext_ir_jit_ns, kNs, kPolicy, "time spent lowering IR hooks")              \
  X(ext_ir_interp_fallbacks, kCount, kPolicy,                                 \
    "IR hook dispatches that fell back to the interpreter")                   \
  X(reclaim_wakeups, kCount, kReclaim,                                        \
    "reclaimer idle->active wakeups (hysteresis edges)")                      \
  X(reclaim_background_batches, kCount, kReclaim,                             \
    "eviction batches run by the reclaimer lane")                             \
  X(reclaim_background_evicted, kCount, kReclaim,                             \
    "folios evicted by the reclaimer lane")                                   \
  X(ext_background_reclaim_ns, kNs, kReclaim,                                 \
    "reclaimer-lane time spent reclaiming")                                   \
  X(reclaim_direct_entries, kCount, kReclaim,                                 \
    "direct-reclaim entries by allocating tasks")                             \
  X(reclaim_direct_evicted, kCount, kReclaim,                                 \
    "folios evicted by direct reclaim")                                       \
  X(ext_direct_reclaim_ns, kNs, kReclaim,                                     \
    "allocator time spent in direct reclaim")                                 \
  X(reclaim_emergency_entries, kCount, kReclaim,                              \
    "allocations over the hard limit despite background reclaim")             \
  X(reclaim_watchdog_trips, kCount, kReclaim,                                 \
    "watchdog verdicts of a stalled or dead reclaimer lane")                  \
  X(reclaim_stalled_ticks, kCount, kReclaim,                                  \
    "reclaimer ticks wedged by reclaim.stall")                                \
  X(reclaim_max_overshoot_pages, kPages, kReclaim,                            \
    "high-water mark: largest overshoot of the hard limit at an emergency")   \
  X(ext_reclaim_failures, kCount, kReclaim,                                   \
    "rounds the ext policy evicted nothing while the base fallback did")      \
  X(psi_some_ns, kNs, kReclaim,                                               \
    "PSI some: time at least one task stalled in direct reclaim")             \
  X(psi_full_ns, kNs, kReclaim,                                               \
    "PSI full: the zero-progress subset of psi_some_ns")                      \
  X(writeback_pages, kPages, kWriteback,                                      \
    "pages written back (eviction, fsync and flusher)")                       \
  X(dirty_pages, kPages, kWriteback,                                          \
    "gauge: dirty pages charged to the cgroup now")                           \
  X(writeback_wakeups, kCount, kWriteback, "flusher idle->active wakeups")    \
  X(writeback_flush_ticks, kCount, kWriteback,                                \
    "flusher ticks that wrote pages")                                         \
  X(writeback_extents, kCount, kWriteback,                                    \
    "device writes of writeback_pages (eviction, fsync and flusher)")         \
  X(writeback_deferred_pages, kPages, kWriteback,                             \
    "dirty pages a should_writeback hook kept back")                          \
  X(writeback_throttle_entries, kCount, kWriteback,                           \
    "writers throttled above the dirty ratio")                                \
  X(ext_dirty_throttle_ns, kNs, kWriteback,                                   \
    "writer time stalled in the balance_dirty_pages analogue")                \
  X(ext_writeback_ns, kNs, kWriteback, "flusher-lane time spent writing")     \
  X(writeback_sync_entries, kCount, kWriteback,                              \
    "fsync calls that wrote back dirty pages of this cgroup")                 \
  X(writeback_stalled_ticks, kCount, kWriteback,                              \
    "flusher ticks wedged by writeback.stall")                                \
  X(writeback_lost_wakeups, kCount, kWriteback,                               \
    "flusher wakeups dropped by writeback.lost_wakeup")                       \
  X(writeback_partial_flushes, kCount, kWriteback,                            \
    "flusher ticks cut short by writeback.partial_flush")

enum class CgroupCounter : uint8_t {
#define CACHE_EXT_COUNTER_ENUM(name, unit, layer, doc) name,
  CACHE_EXT_CGROUP_COUNTERS(CACHE_EXT_COUNTER_ENUM)
#undef CACHE_EXT_COUNTER_ENUM
};

struct CgroupCounterInfo {
  CgroupCounter id;
  const char* name;
  CounterUnit unit;
  CounterLayer layer;
  const char* doc;
};

inline constexpr CgroupCounterInfo kCgroupCounters[] = {
#define CACHE_EXT_COUNTER_INFO(name, unit, layer, doc)               \
  {CgroupCounter::name, #name, CounterUnit::unit, CounterLayer::layer, \
   doc},
    CACHE_EXT_CGROUP_COUNTERS(CACHE_EXT_COUNTER_INFO)
#undef CACHE_EXT_COUNTER_INFO
};

inline constexpr size_t kNumCgroupCounters = std::size(kCgroupCounters);

// One cgroup's counters: a relaxed atomic per table row. Bumped from
// whichever lock the path holds — or none, on the lockless hit path — so
// every operation is a single relaxed RMW; a snapshot taken under the
// cgroup lock is coherent for the counters that lock orders.
class CgroupCounters {
 public:
  void Add(CgroupCounter c, uint64_t n = 1) {
    at(c).fetch_add(n, std::memory_order_relaxed);
  }
  // Gauges only.
  void Sub(CgroupCounter c, uint64_t n) {
    at(c).fetch_sub(n, std::memory_order_relaxed);
  }
  // High-water marks only.
  void Max(CgroupCounter c, uint64_t v) {
    std::atomic<uint64_t>& slot = at(c);
    uint64_t prev = slot.load(std::memory_order_relaxed);
    while (v > prev &&
           !slot.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  void Set(CgroupCounter c, uint64_t v) {
    at(c).store(v, std::memory_order_relaxed);
  }
  uint64_t Get(CgroupCounter c) const {
    return values_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t>& at(CgroupCounter c) {
    return values_[static_cast<size_t>(c)];
  }

  std::array<std::atomic<uint64_t>, kNumCgroupCounters> values_{};
};

}  // namespace cache_ext

#endif  // SRC_CGROUP_COUNTERS_H_
