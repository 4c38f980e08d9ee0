// Workload runners: execute generated op streams against an LSM DB (or the
// file searcher) on N lanes and collect paper-style metrics.
//
// Lane scheduling: the runner always advances the lane with the smallest
// virtual clock, which is how N concurrent client threads interleave against
// shared resources. Throughput = completed ops / max lane time; latency
// histograms are recorded per op class (reads/updates vs scans) so Fig. 10
// can report them separately.

#ifndef SRC_HARNESS_RUNNER_H_
#define SRC_HARNESS_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/lsm/db.h"
#include "src/policies/userspace_agent.h"
#include "src/search/searcher.h"
#include "src/util/histogram.h"
#include "src/workloads/kv_workload.h"

namespace cache_ext::harness {

struct RunResult {
  uint64_t ops_completed = 0;
  uint64_t scans_completed = 0;
  double duration_s = 0;             // max lane virtual time
  double throughput_ops = 0;         // point ops per virtual second
  double scan_throughput_ops = 0;    // scan ops per virtual second
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  double mean_ns = 0;
  uint64_t scan_p99_ns = 0;
  double hit_rate = 0;
  uint64_t disk_read_bytes = 0;
  uint64_t disk_write_bytes = 0;
  bool oom = false;
};

struct LaneSpec {
  workloads::KvGenerator* generator = nullptr;  // op stream for this lane
  TaskContext task;
  uint64_t ops = 0;  // ops this lane executes
};

// Completed ops between polls of the policies' userspace agents.
inline constexpr uint64_t kAgentPollInterval = 2048;

struct KvRunnerOptions {
  std::shared_ptr<policies::UserspaceAgent> agent;
  // Lanes start at this virtual time (pass the SSD frontier when reusing a
  // device across runs); measured duration excludes it.
  uint64_t base_time_ns = 0;
};

// Runs lanes against the DB until each lane finishes its op budget (or the
// cgroup OOMs). Returns aggregate metrics; on OOM, throughput is 0 (the
// workload died), matching how Fig. 8 reports the MGLRU OOM on cluster 24.
Expected<RunResult> RunKvWorkload(lsm::LsmDb* db, MemCgroup* cg,
                                  std::vector<LaneSpec> lanes,
                                  const KvRunnerOptions& options = {});

// --- Multithreaded (wall-clock) runner -------------------------------------
//
// Unlike the virtual-clock runners above (which interleave lanes on one OS
// thread to make results deterministic), this runner drives each lane from
// its own std::thread so the page cache's lock sharding is actually
// exercised and measured. Throughput is wall-clock ops/s; latency
// percentiles are still virtual-time (per-op simulated cost), merged across
// threads via the lock-free histogram.

struct ThreadSpec {
  lsm::LsmDb* db = nullptr;                     // this thread's DB
  MemCgroup* cg = nullptr;                      // this thread's cgroup
  workloads::KvGenerator* generator = nullptr;  // op stream (not shared)
  TaskContext task;
  uint64_t ops = 0;
};

struct MtRunResult {
  uint64_t ops_completed = 0;
  double wall_s = 0;               // elapsed wall-clock time
  double wall_throughput_ops = 0;  // completed ops per wall-clock second
  // Aggregate virtual throughput: completed ops / slowest lane's virtual
  // duration — the same metric the single-threaded runners report, so the
  // scaling curve is meaningful even on boxes with fewer cores than lanes
  // (wall-clock throughput cannot exceed 1x on a single-CPU machine no
  // matter how well the cache shards its locks).
  double duration_s = 0;
  double throughput_ops = 0;
  uint64_t p50_ns = 0;  // virtual op latency, merged across threads
  uint64_t p99_ns = 0;
  double mean_ns = 0;
  bool oom = false;  // any thread's cgroup OOMed (its lane stops early)
};

// Runs each spec on its own OS thread until its op budget is done. An OOM
// stops only the affected thread; any other error aborts the run. Pass the
// SSD frontier as `base_time_ns` when the device already served a load
// phase, exactly like KvRunnerOptions::base_time_ns.
Expected<MtRunResult> RunKvWorkloadThreads(std::vector<ThreadSpec> threads,
                                           uint64_t base_time_ns = 0);

struct SearchRunResult {
  uint64_t matches = 0;
  uint64_t passes = 0;
  double duration_s = 0;
  double hit_rate = 0;
  uint64_t disk_read_bytes = 0;
  bool oom = false;
};

// Runs `passes` full passes of the searcher over the corpus with `nr_lanes`
// worker lanes.
Expected<SearchRunResult> RunSearchWorkload(search::FileSearcher* searcher,
                                            MemCgroup* cg, int nr_lanes,
                                            int passes,
                                            std::string_view pattern,
                                            uint64_t base_time_ns = 0);

// --- Fig. 11: two workloads, two cgroups, one disk -------------------------

struct IsolationOptions {
  // Fixed virtual time span (paper: 7 minutes).
  uint64_t duration_ns = 420ULL * 1000 * 1000 * 1000;
  int kv_lanes = 4;
  int search_lanes = 4;
  std::shared_ptr<policies::UserspaceAgent> kv_agent;
  std::shared_ptr<policies::UserspaceAgent> search_agent;
};

struct IsolationResult {
  double kv_throughput_ops = 0;
  double searches_completed = 0;  // fractional corpus passes in the window
  bool kv_oom = false;
  bool search_oom = false;
};

// Runs a KV workload (cgroup A) and the file search (cgroup B) concurrently
// against the shared disk for a fixed virtual time span, interleaving lanes
// by virtual clock so device contention is mutual.
Expected<IsolationResult> RunIsolationWorkload(
    lsm::LsmDb* db, MemCgroup* kv_cg, workloads::KvGenerator* kv_generator,
    search::FileSearcher* searcher, MemCgroup* search_cg,
    std::string_view pattern, const IsolationOptions& options = {});

}  // namespace cache_ext::harness

#endif  // SRC_HARNESS_RUNNER_H_
