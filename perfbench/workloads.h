// The benchmark's workloads: their shapes, the seeded input generators, the
// set-up that builds one instance through the public API, and the closed-loop
// clients that run and check one operation at a time.
//
// Inputs are generated here from the workload seed; the library only sees the
// resulting offsets, keys and values. Every page and value carries a stamp
// (file and page index; key and version) that each read is checked against.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace.h"
#include "src/harness/env.h"
#include "src/lsm/db.h"
#include "src/sim/lane.h"

namespace perfbench {

// SplitMix64: the benchmark's own generator, so its inputs do not change
// when the library's generators do.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// YCSB's scrambled Zipfian: Zipfian(theta) ranks over n items, scattered
// over the key space by an FNV-1a hash.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta);
  uint64_t Next(Rng& rng);

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

enum class WorkloadKind { kPageRead, kYcsbA };

// Every workload runs one client OS thread that round-robins kLanes lanes.
inline constexpr int kLanes = 8;

struct WorkloadSpec {
  std::string_view name;
  WorkloadKind kind;
  uint64_t cgroup_bytes;
  std::string_view policy;  // empty: the cgroup's base LRU only
  // kPageRead: uniform-random 4 KiB reads of one file of file_bytes.
  uint64_t file_bytes;
  // kYcsbA: records x value_bytes, bulk loaded. The memtable is sized so
  // that the median Get is served from SSTable blocks in the page cache
  // rather than from the memtable: with the 4 MiB default about 57% of Gets
  // hit the memtable and the median sits on the edge between the two modes.
  uint64_t records;
  uint32_t value_bytes;
  uint64_t memtable_bytes;
  // Ops of the op stream run before the measured phase.
  uint64_t warm_ops;
};

const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string_view> WorkloadNames();

// Per-window counts of the client.
struct WindowStats {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double ref_ns = 0;    // reference kernel speed at the window start
  int64_t probe_ns = 0;  // time spent on the window-start samples, not ops
  double heap_mib = 0;   // heap in use at the window start
  double disk_mib = 0;   // simulated disk's file bytes at the window start
  Histogram read;   // wall ns per PageCache::Read / LsmDb::Get
  Histogram write;  // wall ns per LsmDb::Put
};

// Whole-phase counts of the client.
struct ClientStats {
  Histogram model_read;  // lane-clock (virtual) ns per read: a model output
  uint64_t gets = 0;
  uint64_t get_page_events = 0;  // tracer added+accessed events inside Gets
  uint64_t puts = 0;
  uint64_t put_bytes = 0;        // user key + value bytes Put
  int64_t compaction_stall_ns = 0;
  uint64_t digest = 0;           // hash of the op stream
};

// The closed-loop client: owns its lanes and its op stream.
class Client {
 public:
  Client() = default;
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Runs one operation, times it and checks its result.
  virtual void Step(ClientStats& totals, WindowStats& window) = 0;
  const std::vector<cache_ext::Lane>& lanes() const { return lanes_; }

 protected:
  cache_ext::Lane& NextLane() { return lanes_[next_lane_++ % lanes_.size()]; }

  std::vector<cache_ext::Lane> lanes_;
  size_t next_lane_ = 0;
};

struct SetupTimes {
  double load_s = 0;    // environment, cgroup, file fill or bulk load
  double attach_s = 0;  // policy build, verify, attach
  double warm_s = 0;    // warm-up ops
  double total() const { return load_s + attach_s + warm_s; }
};

// One set-up workload instance, ready to measure.
class Instance {
 public:
  // Builds the environment, fills the file or loads the DB, attaches the
  // policy (through AttachTracedPolicy when `traced`), and warms up.
  static cache_ext::Expected<std::unique_ptr<Instance>> SetUp(
      const WorkloadSpec& spec, uint64_t seed, bool traced, SetupTimes* times);

  cache_ext::harness::Env& env() { return *env_; }
  cache_ext::MemCgroup* cgroup() { return cg_; }
  cache_ext::lsm::LsmDb* db() { return db_.get(); }
  Client& client() { return *client_; }
  const std::shared_ptr<EvictCounts>& evict_counts() const {
    return evict_counts_;
  }

 private:
  Instance() = default;

  std::unique_ptr<cache_ext::harness::Env> env_;
  cache_ext::MemCgroup* cg_ = nullptr;
  std::unique_ptr<cache_ext::lsm::LsmDb> db_;
  std::vector<uint32_t> versions_;  // last written version per key
  std::unique_ptr<Client> client_;
  std::shared_ptr<EvictCounts> evict_counts_ = std::make_shared<EvictCounts>();
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
