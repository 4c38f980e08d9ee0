// One measured phase: the client thread of an instance in a closed loop,
// with per-window timings, whole-phase counts and counter snapshots.

#ifndef PERFBENCH_PHASE_H_
#define PERFBENCH_PHASE_H_

#include <cstdint>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/pagecache/page_cache.h"

namespace perfbench {

inline constexpr int64_t kWindowNs = 500'000'000;

// Library counters read before and after a phase.
struct Snapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t refaults = 0;
  uint64_t activations = 0;
  uint64_t oom_events = 0;
  uint64_t ssd_reads = 0;
  uint64_t ssd_writes = 0;
  uint64_t ssd_read_bytes = 0;
  uint64_t ssd_write_bytes = 0;
  uint64_t compactions = 0;
  uint64_t evict_requested = 0;
  uint64_t evict_proposed = 0;
  uint64_t hook_trips = 0;
  std::vector<uint64_t> lane_ns;  // each lane's virtual clock
  cache_ext::CgroupCacheStats cache;
};

// Counter deltas over a phase, summable over phases.
struct Counts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t refaults = 0;
  uint64_t activations = 0;
  uint64_t ssd_reads = 0;
  uint64_t ssd_writes = 0;
  uint64_t ssd_read_bytes = 0;
  uint64_t ssd_write_bytes = 0;
  uint64_t direct_reclaim_ns = 0;  // CpuCostModel (virtual) time

  Counts& operator+=(const Counts& other);
};

// Per-window timing series.
struct Series {
  std::vector<double> ops_per_s;
  std::vector<double> cpu_ns_per_op;
  std::vector<double> read_p50;
  std::vector<double> read_p99;
  std::vector<double> write_p50;
  std::vector<double> write_p99;
};

struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  Series raw;     // as measured
  Series scaled;  // each window rescaled to the reference speed
  std::vector<double> ref_ns;  // reference kernel speed per window
  // The instance's heap less the simulated disk's bytes at each window
  // start, as an offset from the instance's heap at the end of the phase;
  // AddHeapBase() adds that end value, which only the instance's
  // destruction reveals.
  std::vector<double> heap_mib;
  Histogram read;
  Histogram write;
  ClientStats totals;
  double model_elapsed_ns = 0;  // longest lane virtual-clock advance
  Counts counts;
  Snapshot before;
  Snapshot after;
  LayerTotals layers;      // traced phases only
  std::vector<Span> kept;  // traced phases only

  // Adds `other`, a phase of another instance: window series are joined
  // and counts summed; snapshots, layers and spans stay this phase's.
  void Add(const Phase& other);
  void AddHeapBase(double end_mib);
};

// Heap bytes in use over all malloc arenas, in MiB.
double HeapInUseMib();

// Runs the client of `inst` on its own thread in a closed loop: for
// `windows` windows of kWindowNs, or for `op_budget` ops in one window when
// nonzero. At the start of each window the client samples the heap and runs
// the reference kernel, and the window's timings are rescaled by its speed
// (reference.h). With `trace_cost` set, the client records spans.
Phase RunPhase(Instance& inst, int windows, uint64_t op_budget,
               const TimerCost* trace_cost);

}  // namespace perfbench

#endif  // PERFBENCH_PHASE_H_
