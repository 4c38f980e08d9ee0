#include "perfbench/phase.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "perfbench/reference.h"

namespace perfbench {
namespace {

constexpr size_t kKeepSpans = size_t{2} * ThreadTrace::kFoldSpans;
constexpr double kMib = 1024.0 * 1024.0;

Snapshot Take(Instance& inst) {
  Snapshot s;
  cache_ext::MemCgroup* cg = inst.cgroup();
  s.hits = cg->stat_hits.load();
  s.misses = cg->stat_misses.load();
  s.evictions = cg->stat_evictions.load();
  s.refaults = cg->stat_refaults.load();
  s.activations = cg->stat_activations.load();
  s.oom_events = cg->stat_oom_events.load();
  cache_ext::SsdModel& ssd = inst.env().ssd();
  s.ssd_reads = ssd.total_reads();
  s.ssd_writes = ssd.total_writes();
  s.ssd_read_bytes = ssd.total_read_bytes();
  s.ssd_write_bytes = ssd.total_write_bytes();
  s.compactions = inst.db() != nullptr ? inst.db()->compactions_run() : 0;
  s.evict_requested = inst.evict_counts()->requested.load();
  s.evict_proposed = inst.evict_counts()->proposed.load();
  s.cache = inst.env().cache().StatsFor(cg);
  for (uint64_t trips : s.cache.ext_hook_trip_counts) {
    s.hook_trips += trips;
  }
  for (const cache_ext::Lane& lane : inst.client().lanes()) {
    s.lane_ns.push_back(lane.now_ns());
  }
  return s;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Append(Series& series, double ops_per_s, double cpu_ns_per_op,
            const WindowStats& window, double scale) {
  series.ops_per_s.push_back(ops_per_s * scale);
  series.cpu_ns_per_op.push_back(cpu_ns_per_op / scale);
  series.read_p50.push_back(window.read.Percentile(0.50) / scale);
  series.read_p99.push_back(window.read.Percentile(0.99) / scale);
  series.write_p50.push_back(window.write.Percentile(0.50) / scale);
  series.write_p99.push_back(window.write.Percentile(0.99) / scale);
}

template <typename T>
void Extend(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void Extend(Series& to, const Series& from) {
  Extend(to.ops_per_s, from.ops_per_s);
  Extend(to.cpu_ns_per_op, from.cpu_ns_per_op);
  Extend(to.read_p50, from.read_p50);
  Extend(to.read_p99, from.read_p99);
  Extend(to.write_p50, from.write_p50);
  Extend(to.write_p99, from.write_p99);
}

}  // namespace

Counts& Counts::operator+=(const Counts& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  refaults += other.refaults;
  activations += other.activations;
  ssd_reads += other.ssd_reads;
  ssd_writes += other.ssd_writes;
  ssd_read_bytes += other.ssd_read_bytes;
  ssd_write_bytes += other.ssd_write_bytes;
  direct_reclaim_ns += other.direct_reclaim_ns;
  return *this;
}

void Phase::Add(const Phase& other) {
  ops += other.ops;
  failed += other.failed;
  wall_s += other.wall_s;
  Extend(raw, other.raw);
  Extend(scaled, other.scaled);
  Extend(ref_ns, other.ref_ns);
  Extend(heap_mib, other.heap_mib);
  read.Merge(other.read);
  write.Merge(other.write);
  totals.model_read.Merge(other.totals.model_read);
  totals.gets += other.totals.gets;
  totals.get_page_events += other.totals.get_page_events;
  totals.puts += other.totals.puts;
  totals.put_bytes += other.totals.put_bytes;
  totals.compaction_stall_ns += other.totals.compaction_stall_ns;
  totals.digest = totals.digest * 0x100000001B3ULL ^ other.totals.digest;
  model_elapsed_ns += other.model_elapsed_ns;
  counts += other.counts;
}

void Phase::AddHeapBase(double end_mib) {
  for (double& mib : heap_mib) {
    mib += end_mib;
  }
}

double HeapInUseMib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / kMib;
}

Phase RunPhase(Instance& inst, int windows, uint64_t op_budget,
               const TimerCost* trace_cost) {
  if (op_budget != 0) {
    windows = 1;
  }
  std::vector<WindowStats> stats(windows);
  std::vector<int64_t> wall(windows, 0);
  std::vector<int64_t> cpu(windows, 0);
  Phase phase;
  std::atomic<bool> go{false};
  std::atomic<int> window{0};
  double end_heap_mib = 0;

  auto client_loop = [&] {
    std::optional<ThreadTrace> trace;
    if (trace_cost != nullptr) {
      trace.emplace(*trace_cost, kKeepSpans);
      ThreadTrace::SetCurrent(&*trace);
    }
    ReferenceKernel reference(0x5EED0000ull);
    Client& client = inst.client();
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    int sampled = -1;
    for (uint64_t done = 0;; ++done) {
      const int w = window.load(std::memory_order_relaxed);
      if (w >= windows || (op_budget != 0 && done >= op_budget)) {
        break;
      }
      if (w != sampled) {
        const int64_t start = NowNs();
        stats[w].heap_mib = HeapInUseMib();
        stats[w].disk_mib =
            static_cast<double>(inst.env().disk().TotalBytes()) / kMib;
        stats[w].ref_ns = reference.Run();
        stats[w].probe_ns = NowNs() - start;
        sampled = w;
      }
      client.Step(phase.totals, stats[w]);
    }
    // Taken on this thread with the reference kernel still alive, like the
    // window samples, so the benchmark's own heap cancels out of their
    // difference.
    end_heap_mib = HeapInUseMib();
    if (trace) {
      trace->Fold();
      ThreadTrace::SetCurrent(nullptr);
      phase.layers = trace->totals();
      phase.kept = trace->kept();
    }
  };

  phase.before = Take(inst);
  {
    std::jthread worker(client_loop);
    const int64_t start = NowNs();
    int64_t prev = start;
    int64_t prev_cpu = ProcessCpuNs();
    go.store(true, std::memory_order_release);
    if (op_budget == 0) {
      for (int w = 0; w < windows; ++w) {
        const int64_t wait = start + (w + 1) * kWindowNs - NowNs();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        }
        const int64_t now = NowNs();
        const int64_t now_cpu = ProcessCpuNs();
        window.store(w + 1, std::memory_order_relaxed);
        wall[w] = now - prev;
        cpu[w] = now_cpu - prev_cpu;
        prev = now;
        prev_cpu = now_cpu;
      }
    }
    worker.join();
    if (op_budget != 0) {
      const int64_t now = NowNs();
      wall[0] = now - prev;
      cpu[0] = ProcessCpuNs() - prev_cpu;
      prev = now;
    }
    phase.wall_s = static_cast<double>(prev - start) * 1e-9;
  }
  phase.after = Take(inst);
  const Snapshot& b = phase.before;
  const Snapshot& a = phase.after;
  phase.counts = Counts{
      .hits = a.hits - b.hits,
      .misses = a.misses - b.misses,
      .evictions = a.evictions - b.evictions,
      .refaults = a.refaults - b.refaults,
      .activations = a.activations - b.activations,
      .ssd_reads = a.ssd_reads - b.ssd_reads,
      .ssd_writes = a.ssd_writes - b.ssd_writes,
      .ssd_read_bytes = a.ssd_read_bytes - b.ssd_read_bytes,
      .ssd_write_bytes = a.ssd_write_bytes - b.ssd_write_bytes,
      .direct_reclaim_ns =
          a.cache.ext_direct_reclaim_ns - b.cache.ext_direct_reclaim_ns};

  for (int w = 0; w < windows; ++w) {
    const WindowStats& ws = stats[w];
    phase.ops += ws.ops;
    phase.failed += ws.failed;
    phase.read.Merge(ws.read);
    phase.write.Merge(ws.write);
    if (ws.ops == 0 || ws.ref_ns == 0) {
      continue;
    }
    // The window-start samples are not workload time: take them out of the
    // window's wall and CPU time.
    const double ops = static_cast<double>(ws.ops);
    const double ops_per_s =
        ops / (static_cast<double>(wall[w] - ws.probe_ns) * 1e-9);
    const double cpu_ns_per_op =
        static_cast<double>(cpu[w] - ws.probe_ns) / ops;
    phase.ref_ns.push_back(ws.ref_ns);
    phase.heap_mib.push_back(ws.heap_mib - ws.disk_mib - end_heap_mib);
    Append(phase.raw, ops_per_s, cpu_ns_per_op, ws, 1.0);
    Append(phase.scaled, ops_per_s, cpu_ns_per_op, ws,
           ws.ref_ns / kReferenceNs);
  }
  for (size_t i = 0; i < phase.before.lane_ns.size(); ++i) {
    phase.model_elapsed_ns =
        std::max(phase.model_elapsed_ns,
                 static_cast<double>(phase.after.lane_ns[i] -
                                     phase.before.lane_ns[i]));
  }
  return phase;
}

}  // namespace perfbench
