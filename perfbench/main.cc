// perfbench: wall-clock benchmark of the page cache, cache_ext and the LSM
// store, driven through the public API. See perfbench/METRICS.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ops N] [--spans-out FILE]
//   perfbench --self-test-spans
//
// --trace 0 sets the workload up 9 times (the median set-up is reported)
// and measures the last three instances for S/3 seconds each, in windows
// of 0.5 s, with tracing off. --trace 1 does the same in S/2 seconds, then
// sets up a traced instance (hook wrappers, adapter decorator, page-cache
// tracer) and measures it for S/2 seconds. --ops replaces the time limit
// with a fixed op count, split over the three measured instances, which
// are then the only ones set up; count metrics repeat exactly.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (the end-to-end set, or the per-layer set with --trace 1), counts
// (count-derived metrics of the measured phase) and the op-stream digest.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/phase.h"
#include "perfbench/reference.h"
#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using cache_ext::CgroupCacheStats;

constexpr int kSetups = 9;
constexpr int kMeasuredInstances = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  uint64_t ops = 0;
  std::string spans_out;
  bool self_test_spans = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double Delta(uint64_t before, uint64_t after) {
  return static_cast<double>(after - before);
}

double AsDouble(uint64_t v) { return static_cast<double>(v); }

// Count-derived metrics of a phase: functions of the op stream, not of time.
Metrics CountMetrics(const Phase& p) {
  const Counts& c = p.counts;
  const double ops = AsDouble(p.ops);
  const double hits = AsDouble(c.hits);
  auto per_op = [ops](uint64_t count) { return Ratio(AsDouble(count), ops); };
  return {
      {"hit_ratio", Ratio(hits, hits + AsDouble(c.misses)), "ratio"},
      {"disk_read_bytes_per_op", per_op(c.ssd_read_bytes), "B/op"},
      {"disk_write_bytes_per_op", per_op(c.ssd_write_bytes), "B/op"},
      {"memcg.evictions_per_op", per_op(c.evictions), "1/op"},
      {"memcg.refaults_per_op", per_op(c.refaults), "1/op"},
      {"memcg.activations_per_op", per_op(c.activations), "1/op"},
      {"ssd.reads_per_op", per_op(c.ssd_reads), "1/op"},
      {"ssd.writes_per_op", per_op(c.ssd_writes), "1/op"},
  };
}

double Find(const Metrics& metrics, std::string_view name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Virtual-time outputs of the CpuCostModel, reported only under sim.model_*.
Metrics ModelMetrics(const Phase& p) {
  const double ops = AsDouble(p.ops);
  return {
      {"sim.model_ops_per_s", Ratio(ops, p.model_elapsed_ns * 1e-9),
       "model_1/s"},
      {"sim.model_read_p99_us", p.totals.model_read.Percentile(0.99) / 1000.0,
       "model_us"},
      {"sim.model_direct_reclaim_ns",
       Ratio(AsDouble(p.counts.direct_reclaim_ns), ops), "model_ns"},
  };
}

// Medians over windows of a timing series; write latencies only when the
// workload writes.
Metrics Timings(const Series& s) {
  Metrics m = {
      {"ops_per_s", Median(s.ops_per_s), "1/s"},
      {"read_p50_ns", Median(s.read_p50), "ns"},
      {"read_p99_ns", Median(s.read_p99), "ns"},
      {"cpu_ns_per_op", Median(s.cpu_ns_per_op), "ns"},
  };
  if (Median(s.write_p50) > 0) {
    m.push_back({"write_p50_ns", Median(s.write_p50), "ns"});
    m.push_back({"write_p99_ns", Median(s.write_p99), "ns"});
  }
  return m;
}

constexpr size_t kCommonTimings = 4;  // Timings() entries every workload has

// The gated set: every metric applies to every workload and is never 0.
Metrics EndToEnd(const Phase& p, double setup_s) {
  Metrics m = Timings(p.scaled);
  m.resize(kCommonTimings);
  m.push_back({"hit_ratio", Find(CountMetrics(p), "hit_ratio"), "ratio"});
  // The library's memory: the instance's heap less the simulated disk's
  // file bytes (a real page cache keeps file data on the device), at its
  // largest over the window-start samples.
  m.push_back({"peak_heap_mib",
               p.heap_mib.empty()
                   ? 0.0
                   : *std::max_element(p.heap_mib.begin(), p.heap_mib.end()),
               "MiB"});
  m.push_back({"setup_s", setup_s, "s"});
  return m;
}

// End-to-end metrics that do not apply to every workload or are 0 on an
// unchanged tree: printed, not gated.
Metrics EndToEndExtra(const Phase& p) {
  const Metrics counts = CountMetrics(p);
  const Metrics timings = Timings(p.scaled);
  Metrics m(timings.begin() + kCommonTimings, timings.end());
  m.push_back({"disk_read_bytes_per_op",
               Find(counts, "disk_read_bytes_per_op"), "B/op"});
  m.push_back({"disk_write_bytes_per_op",
               Find(counts, "disk_write_bytes_per_op"), "B/op"});
  m.push_back({"fail_ratio", Ratio(AsDouble(p.failed), AsDouble(p.ops)),
               "ratio"});
  m.push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
  return m;
}

Metrics PerLayer(const Phase& untraced, const Phase& traced,
                 const SetupTimes& setup, const TimerCost& cost) {
  const Snapshot& b = traced.before;
  const Snapshot& a = traced.after;
  const CgroupCacheStats& bc = b.cache;
  const CgroupCacheStats& ac = a.cache;
  const ClientStats& t = traced.totals;
  const LayerTotals& spans = traced.layers;
  const double ops = AsDouble(traced.ops);
  auto self = [&](SpanName n) {
    return Ratio(static_cast<double>(spans.self_ns[n]), ops);
  };
  auto name = [](SpanName n, const char* suffix) {
    return std::string(SpanNameString(n)) + suffix;
  };

  Metrics m = {
      {"pagecache.read.self_ns", self(kPagecacheRead), "ns"},
      {"lsm.get.self_ns", self(kLsmGet), "ns"},
      {"lsm.put.self_ns", self(kLsmPut), "ns"},
  };
  const double lookups =
      Delta(bc.ext_lockless_lookups, ac.ext_lockless_lookups);
  m.push_back({"pagecache.lockless_lookups", Ratio(lookups, ops), "1/op"});
  m.push_back({"pagecache.lockless_retry_ratio",
               Ratio(Delta(bc.ext_lockless_retries, ac.ext_lockless_retries),
                     lookups),
               "ratio"});
  m.push_back({"pagecache.readahead_pages_per_op",
               Ratio(Delta(bc.readahead_pages, ac.readahead_pages), ops),
               "1/op"});
  m.push_back({"pagecache.invalidations",
               Ratio(Delta(bc.invalidations, ac.invalidations), ops), "1/op"});

  for (SpanName n :
       {kExtAdded, kExtAccessed, kExtRemoved, kExtEvict, kExtValidate}) {
    m.push_back({name(n, ".calls"), Ratio(AsDouble(spans.calls[n]), ops),
                 "1/op"});
    m.push_back({name(n, ".self_ns"), self(n), "ns"});
  }
  m.push_back({"cache_ext.fallback_evictions",
               Delta(bc.fallback_evictions, ac.fallback_evictions), "count"});
  m.push_back({"cache_ext.violations",
               Delta(bc.ext_violations, ac.ext_violations), "count"});
  m.push_back({"cache_ext.hook_trips", Delta(b.hook_trips, a.hook_trips),
               "count"});

  for (SpanName n :
       {kPolicyAdded, kPolicyAccessed, kPolicyRemoved, kPolicyEvict}) {
    m.push_back({name(n, ".ns_per_call"),
                 Ratio(static_cast<double>(spans.self_ns[n]),
                       AsDouble(spans.calls[n])),
                 "ns"});
    m.push_back({name(n, ".self_ns"), self(n), "ns"});
  }
  m.push_back({"policy.other.self_ns", self(kPolicyOther), "ns"});
  const double slot_hits =
      Delta(bc.ext_local_storage_hits, ac.ext_local_storage_hits);
  m.push_back(
      {"policy.slot_hit_ratio",
       Ratio(slot_hits,
             slot_hits + Delta(bc.ext_map_lookups, ac.ext_map_lookups)),
       "ratio"});
  m.push_back({"policy.candidates_per_evict",
               Ratio(Delta(b.evict_proposed, a.evict_proposed),
                     Delta(b.evict_requested, a.evict_requested)),
               "ratio"});
  m.push_back({"policy.evict_alloc_bytes_steady",
               Delta(bc.ext_evict_alloc_bytes, ac.ext_evict_alloc_bytes),
               "B"});

  const double entries =
      Delta(bc.reclaim_direct_entries, ac.reclaim_direct_entries);
  m.push_back({"reclaim.direct_entries", Ratio(entries, ops), "1/op"});
  m.push_back(
      {"reclaim.evicted_per_entry",
       Ratio(Delta(bc.reclaim_direct_evicted, ac.reclaim_direct_evicted),
             entries),
       "count"});
  m.push_back({"reclaim.oom_events", Delta(b.oom_events, a.oom_events),
               "count"});

  const double wb_pages = Delta(bc.writeback_pages, ac.writeback_pages);
  m.push_back({"writeback.pages_per_op", Ratio(wb_pages, ops), "1/op"});
  m.push_back(
      {"writeback.pages_per_extent",
       Ratio(wb_pages, Delta(bc.writeback_extents, ac.writeback_extents)),
       "count"});
  m.push_back(
      {"writeback.sync_entries",
       Ratio(Delta(bc.writeback_sync_entries, ac.writeback_sync_entries), ops),
       "1/op"});

  m.push_back({"lsm.page_events_per_get",
               Ratio(AsDouble(t.get_page_events), AsDouble(t.gets)), "1/op"});
  m.push_back({"lsm.compactions",
               Ratio(Delta(b.compactions, a.compactions), ops), "1/op"});
  m.push_back({"lsm.compaction_stall_ns",
               Ratio(static_cast<double>(t.compaction_stall_ns), ops), "ns"});
  m.push_back({"lsm.write_amp",
               Ratio(Delta(b.ssd_write_bytes, a.ssd_write_bytes),
                     AsDouble(t.put_bytes)),
               "ratio"});
  m.push_back({"lsm.put.p50_ns", Median(traced.raw.write_p50), "ns"});
  m.push_back({"lsm.put.p99_ns", Median(traced.raw.write_p99), "ns"});

  for (const Metric& c : CountMetrics(traced)) {
    if (c.name.starts_with("memcg.") || c.name.starts_with("ssd.")) {
      m.push_back(c);
    }
  }
  for (const Metric& c : ModelMetrics(untraced)) {
    m.push_back(c);
  }
  m.push_back({"setup.load_s", setup.load_s, "s"});
  m.push_back({"setup.attach_s", setup.attach_s, "s"});
  m.push_back({"setup.warm_s", setup.warm_s, "s"});

  const double op_ns = Ratio(static_cast<double>(spans.root_ns), ops);
  double self_sum = 0;
  uint64_t n_spans = 0;
  for (size_t n = 0; n < kNumSpanNames; ++n) {
    self_sum += self(static_cast<SpanName>(n));
    n_spans += spans.calls[n];
  }
  // The instrumentation's share of a traced op's wall time, once as the
  // calibrated constants predict it (what the self times leave out) and
  // once as measured (untraced against traced throughput, both rescaled).
  const double overhead = Ratio(Median(untraced.scaled.ops_per_s),
                                Median(traced.scaled.ops_per_s));
  const double predicted_share =
      (op_ns - self_sum) * Median(traced.raw.ops_per_s) * 1e-9;
  const double measured_share = overhead == 0 ? 0 : 1 - 1 / overhead;
  m.push_back({"trace.timer_ns", static_cast<double>(cost.pair_ns), "ns"});
  m.push_back({"trace.span_ns", static_cast<double>(cost.per_span_ns), "ns"});
  m.push_back({"trace.op_ns", op_ns, "ns"});
  m.push_back({"trace.overhead_ratio", overhead, "ratio"});
  m.push_back({"trace.residual_ratio", Ratio(op_ns - self_sum, op_ns),
               "ratio"});
  m.push_back({"trace.calibration_gap",
               std::abs(measured_share - predicted_share), "ratio"});
  m.push_back({"trace.negative_self_ratio",
               Ratio(AsDouble(spans.negative_self), AsDouble(n_spans)),
               "ratio"});
  return m;
}

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Json(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void WriteSpans(const std::string& path, const Phase& phase) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "op\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : phase.kept) {
    const std::string_view name = SpanNameString(static_cast<SpanName>(s.name));
    std::fprintf(f, "%" PRIu64 "\t%.*s\t%d\t%" PRId64 "\t%" PRId64 "\n",
                 s.op_id, static_cast<int>(name.size()), name.data(), s.parent,
                 s.start_ns, s.end_ns);
  }
  std::fclose(f);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test-spans") {
      args->self_test_spans = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--ops") {
      args->ops = std::strtoull(value, nullptr, 10);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i - 1]);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (args.self_test_spans) {
    const bool ok = SelfTestSpans();
    std::printf("span self-time arithmetic: %s\n", ok ? "exact" : "MISMATCH");
    return ok ? 0 : 1;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (std::string_view name : WorkloadNames()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()),
                   name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced = args.trace != 0;
  // Calibrated before anything else runs, on an idle process.
  const TimerCost cost = CalibrateTimer();

  // Set-up runs on this one thread; each repetition is rescaled by a
  // reference sample taken just before it (reference.h).
  //
  // The last kMeasuredInstances instances are each measured for an equal
  // share of the run: how fast one instance runs depends on where its
  // memory landed (a hit-only read workload moved by 8-30% between
  // instances inside one process), and the median over the windows of
  // several absorbs that. A fixed op count (--ops) reports no set-up time,
  // so only the measured instances are set up.
  const int windows = std::max(
      1, static_cast<int>(args.seconds * 1e9 / kWindowNs / (traced ? 2 : 1)));
  const int instances = kMeasuredInstances;
  const int n_setups = args.ops != 0 ? instances : kSetups;
  std::vector<SetupTimes> setups;
  std::vector<double> raw_setup_s;
  Phase measured;
  ReferenceKernel reference(0x5E7u);
  for (int k = 0; k < n_setups; ++k) {
    const double factor = reference.Run() / kReferenceNs;
    SetupTimes times;
    auto made = Instance::SetUp(*spec, args.seed, false, &times);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    raw_setup_s.push_back(times.total());
    setups.push_back(SetupTimes{times.load_s / factor,
                                times.attach_s / factor,
                                times.warm_s / factor});
    if (k >= n_setups - instances) {
      Phase phase = RunPhase(**made, std::max(1, windows / instances),
                             args.ops / instances, nullptr);
      // The instance's heap at the end of its phase is what its
      // destruction gives back; the benchmark's buffers outlive it and
      // cancel out.
      const double alive = HeapInUseMib();
      made->reset();
      phase.AddHeapBase(alive - HeapInUseMib());
      if (k == n_setups - instances) {
        measured = std::move(phase);
      } else {
        measured.Add(phase);
      }
    }
  }
  std::sort(setups.begin(), setups.end(),
            [](const SetupTimes& x, const SetupTimes& y) {
              return x.total() < y.total();
            });
  const SetupTimes& median_setup = setups[setups.size() / 2];

  std::printf("perfbench %.*s  seed %" PRIu64 "  lanes %d  policy %s\n",
              static_cast<int>(spec->name.size()), spec->name.data(),
              args.seed, kLanes,
              spec->policy.empty() ? "(base LRU)"
                                   : std::string(spec->policy).c_str());
  std::printf("measured %.2f s untraced: %" PRIu64 " ops (%" PRIu64
              " read, %" PRIu64 " write samples) in %zu windows, %" PRIu64
              " failed; %d set-ups, the last %d measured\n",
              measured.wall_s, measured.ops, measured.read.count(),
              measured.write.count(), measured.raw.ops_per_s.size(),
              measured.failed, n_setups, instances);
  const Metrics e2e = EndToEnd(measured, median_setup.total());
  PrintMetrics("end-to-end (wall clock, tracing off, each window rescaled "
               "to the reference speed; medians over windows):",
               e2e);
  PrintMetrics("end-to-end, not gated (apply to some workloads only):",
               EndToEndExtra(measured));
  Metrics raw = Timings(measured.raw);
  raw.push_back({"setup_s", Median(raw_setup_s), "s"});
  PrintMetrics("as measured, before rescaling:", raw);
  std::printf("reference kernel: median %.1f ns/iter over windows "
              "(nominal %.0f)\n",
              Median(measured.ref_ns), kReferenceNs);
  PrintMetrics("model outputs (CpuCostModel virtual time, not measurements):",
               ModelMetrics(measured));

  Metrics reported = e2e;
  uint64_t attempted = measured.ops;
  uint64_t failed = measured.failed;
  if (traced) {
    SetupTimes traced_times;
    auto made = Instance::SetUp(*spec, args.seed, true, &traced_times);
    if (!made.ok()) {
      std::fprintf(stderr, "traced set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Instance> tinst = std::move(*made);
    EventCounter events;
    tinst->env().cache().SetTracer(&events);
    const Phase tphase = RunPhase(*tinst, windows, args.ops, &cost);
    tinst->env().cache().SetTracer(nullptr);
    tinst.reset();
    attempted += tphase.ops;
    failed += tphase.failed;
    std::printf("measured %.2f s traced: %" PRIu64 " ops, %" PRIu64
                " failed\n",
                tphase.wall_s, tphase.ops, tphase.failed);
    reported = PerLayer(measured, tphase, median_setup, cost);
    PrintMetrics("per-layer (traced run; *.self_ns and *.calls are per op):",
                 reported);
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, tphase);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64
              ", \"metrics\": %s, \"counts\": %s, \"op_digest\": \"%016" PRIx64
              "\"}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              Json(reported).c_str(), Json(CountMetrics(measured)).c_str(),
              measured.totals.digest);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
