#include "src/harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/util/logging.h"

namespace cache_ext::harness {

namespace {

// Executes one KV op on a lane. Returns the op's Status; NotFound is a
// normal outcome (YCSB D/E read keys that may not exist yet).
Status ExecuteOp(lsm::LsmDb* db, Lane& lane, const workloads::KvOp& op,
                 uint32_t value_size) {
  using workloads::KvGenerator;
  using workloads::OpType;
  switch (op.type) {
    case OpType::kRead: {
      auto value = db->Get(lane, KvGenerator::KeyFor(op.key_index));
      if (!value.ok() && value.status().code() != ErrorCode::kNotFound) {
        return value.status();
      }
      return OkStatus();
    }
    case OpType::kUpdate:
    case OpType::kInsert:
      return db->Put(lane, KvGenerator::KeyFor(op.key_index),
                     KvGenerator::ValueFor(op.key_index, value_size));
    case OpType::kScan: {
      auto records =
          db->Scan(lane, KvGenerator::KeyFor(op.key_index), op.scan_len);
      return records.status();
    }
    case OpType::kReadModifyWrite: {
      auto value = db->Get(lane, KvGenerator::KeyFor(op.key_index));
      if (!value.ok() && value.status().code() != ErrorCode::kNotFound) {
        return value.status();
      }
      return db->Put(lane, KvGenerator::KeyFor(op.key_index),
                     KvGenerator::ValueFor(op.key_index, value_size));
    }
  }
  return InvalidArgument("bad op type");
}

bool IsOom(const Status& status) {
  return status.code() == ErrorCode::kResourceExhausted;
}

}  // namespace

Expected<RunResult> RunKvWorkload(lsm::LsmDb* db, MemCgroup* cg,
                                  std::vector<LaneSpec> specs,
                                  const KvRunnerOptions& options) {
  if (specs.empty()) {
    return InvalidArgument("need at least one lane");
  }
  RunResult result;
  Histogram point_latency;
  Histogram scan_latency;

  struct LaneState {
    Lane lane;
    workloads::KvGenerator* generator;
    uint64_t remaining;
    uint32_t value_size;
  };
  std::vector<LaneState> lanes;
  lanes.reserve(specs.size());
  uint64_t seed = 0x1234;
  for (const LaneSpec& spec : specs) {
    lanes.push_back(LaneState{
        Lane(static_cast<uint32_t>(lanes.size()), spec.task, seed += 0x9e37),
        spec.generator, spec.ops, spec.generator->value_size()});
    lanes.back().lane.AdvanceTo(options.base_time_ns);
  }

  cg->ResetStats();
  uint64_t ops_since_poll = 0;

  while (true) {
    // Advance the least-advanced lane that still has work.
    LaneState* next = nullptr;
    for (auto& ls : lanes) {
      if (ls.remaining == 0) {
        continue;
      }
      if (next == nullptr || ls.lane.now_ns() < next->lane.now_ns()) {
        next = &ls;
      }
    }
    if (next == nullptr) {
      break;
    }
    const workloads::KvOp op = next->generator->Next(next->lane.rng());
    const uint64_t t0 = next->lane.now_ns();
    const Status status = ExecuteOp(db, next->lane, op, next->value_size);
    if (IsOom(status)) {
      result.oom = true;
      break;
    }
    CACHE_EXT_RETURN_IF_ERROR(status);
    const uint64_t latency = next->lane.now_ns() - t0;
    if (op.type == workloads::OpType::kScan) {
      scan_latency.Record(latency);
      ++result.scans_completed;
    } else {
      point_latency.Record(latency);
      ++result.ops_completed;
    }
    --next->remaining;

    if (options.agent != nullptr &&
        ++ops_since_poll >= kAgentPollInterval) {
      options.agent->Poll();
      ops_since_poll = 0;
    }
  }

  uint64_t max_now = options.base_time_ns;
  for (const auto& ls : lanes) {
    max_now = std::max(max_now, ls.lane.now_ns());
  }
  result.duration_s =
      static_cast<double>(max_now - options.base_time_ns) / 1e9;
  if (result.oom) {
    result.throughput_ops = 0;
    result.scan_throughput_ops = 0;
  } else if (result.duration_s > 0) {
    result.throughput_ops =
        static_cast<double>(result.ops_completed) / result.duration_s;
    result.scan_throughput_ops =
        static_cast<double>(result.scans_completed) / result.duration_s;
  }
  result.p50_ns = point_latency.P50();
  result.p99_ns = point_latency.P99();
  result.p999_ns = point_latency.P999();
  result.mean_ns = point_latency.Mean();
  result.scan_p99_ns = scan_latency.P99();
  result.hit_rate = cg->HitRate();
  return result;
}

Expected<MtRunResult> RunKvWorkloadThreads(std::vector<ThreadSpec> specs,
                                           uint64_t base_time_ns) {
  if (specs.empty()) {
    return InvalidArgument("need at least one thread");
  }
  for (const ThreadSpec& spec : specs) {
    if (spec.db == nullptr || spec.cg == nullptr ||
        spec.generator == nullptr) {
      return InvalidArgument("thread spec missing db/cgroup/generator");
    }
    spec.cg->ResetStats();
  }

  Histogram latency;  // lock-free: shared across worker threads
  std::atomic<uint64_t> ops_completed{0};
  std::atomic<uint64_t> max_lane_ns{0};
  std::atomic<bool> any_oom{false};
  std::atomic<bool> abort{false};
  std::vector<Status> errors(specs.size(), OkStatus());

  auto worker = [&](size_t i) {
    ThreadSpec& spec = specs[i];
    Lane lane(static_cast<uint32_t>(i), spec.task,
              0x9e3779b97f4a7c15ULL + i * 0x1234567ULL);
    lane.AdvanceTo(base_time_ns);
    const uint32_t value_size = spec.generator->value_size();
    uint64_t lane_end = base_time_ns;
    for (uint64_t op_idx = 0; op_idx < spec.ops; ++op_idx) {
      if (abort.load(std::memory_order_relaxed)) {
        break;
      }
      const workloads::KvOp op = spec.generator->Next(lane.rng());
      const uint64_t t0 = lane.now_ns();
      const Status status = ExecuteOp(spec.db, lane, op, value_size);
      if (IsOom(status)) {
        any_oom.store(true, std::memory_order_relaxed);
        break;  // this cgroup died; the other threads keep going
      }
      if (!status.ok()) {
        errors[i] = status;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      latency.Record(lane.now_ns() - t0);
      ops_completed.fetch_add(1, std::memory_order_relaxed);
      lane_end = lane.now_ns();
    }
    uint64_t seen = max_lane_ns.load(std::memory_order_relaxed);
    while (lane_end > seen &&
           !max_lane_ns.compare_exchange_weak(seen, lane_end,
                                              std::memory_order_relaxed)) {
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    workers.emplace_back(worker, i);
  }
  for (std::thread& t : workers) {
    t.join();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  for (const Status& status : errors) {
    CACHE_EXT_RETURN_IF_ERROR(status);
  }

  MtRunResult result;
  result.ops_completed = ops_completed.load(std::memory_order_relaxed);
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (result.wall_s > 0) {
    result.wall_throughput_ops =
        static_cast<double>(result.ops_completed) / result.wall_s;
  }
  const uint64_t max_ns = max_lane_ns.load(std::memory_order_relaxed);
  result.duration_s =
      max_ns > base_time_ns
          ? static_cast<double>(max_ns - base_time_ns) / 1e9
          : 0;
  if (result.duration_s > 0) {
    result.throughput_ops =
        static_cast<double>(result.ops_completed) / result.duration_s;
  }
  result.p50_ns = latency.P50();
  result.p99_ns = latency.P99();
  result.mean_ns = latency.Mean();
  result.oom = any_oom.load(std::memory_order_relaxed);
  return result;
}

Expected<SearchRunResult> RunSearchWorkload(search::FileSearcher* searcher,
                                            MemCgroup* cg, int nr_lanes,
                                            int passes,
                                            std::string_view pattern,
                                            uint64_t base_time_ns) {
  SearchRunResult result;
  std::vector<std::unique_ptr<Lane>> lane_storage;
  std::vector<Lane*> lanes;
  for (int i = 0; i < nr_lanes; ++i) {
    lane_storage.push_back(std::make_unique<Lane>(
        static_cast<uint32_t>(100 + i), TaskContext{200, 200 + i},
        0xfeed + static_cast<uint64_t>(i)));
    lane_storage.back()->AdvanceTo(base_time_ns);
    lanes.push_back(lane_storage.back().get());
  }
  cg->ResetStats();
  for (int pass = 0; pass < passes; ++pass) {
    auto matches = searcher->SearchPass(lanes, pattern);
    if (!matches.ok()) {
      if (matches.status().code() == ErrorCode::kResourceExhausted) {
        result.oom = true;
        break;
      }
      return matches.status();
    }
    result.matches += *matches;
    ++result.passes;
  }
  uint64_t max_now = base_time_ns;
  for (const Lane* lane : lanes) {
    max_now = std::max(max_now, lane->now_ns());
  }
  result.duration_s = static_cast<double>(max_now - base_time_ns) / 1e9;
  result.hit_rate = cg->HitRate();
  return result;
}

Expected<IsolationResult> RunIsolationWorkload(
    lsm::LsmDb* db, MemCgroup* kv_cg, workloads::KvGenerator* kv_generator,
    search::FileSearcher* searcher, MemCgroup* search_cg,
    std::string_view pattern, const IsolationOptions& options) {
  IsolationResult result;
  kv_cg->ResetStats();
  search_cg->ResetStats();

  struct WorkLane {
    Lane lane;
    bool is_search;
  };
  std::vector<WorkLane> lanes;
  uint64_t seed = 0xAB1E;
  for (int i = 0; i < options.kv_lanes; ++i) {
    lanes.push_back(WorkLane{
        Lane(static_cast<uint32_t>(i), TaskContext{10, 10 + i}, seed += 13),
        false});
  }
  for (int i = 0; i < options.search_lanes; ++i) {
    lanes.push_back(WorkLane{Lane(static_cast<uint32_t>(100 + i),
                                  TaskContext{20, 20 + i}, seed += 13),
                             true});
  }

  uint64_t kv_ops = 0;
  uint64_t files_searched = 0;
  size_t file_cursor = 0;
  uint64_t ops_since_poll = 0;
  const uint32_t value_size = kv_generator->value_size();
  const size_t nr_files = searcher->num_files();

  while (true) {
    WorkLane* next = nullptr;
    for (auto& wl : lanes) {
      if (wl.lane.now_ns() >= options.duration_ns) {
        continue;  // this "thread" has used up the time span
      }
      if (wl.is_search && result.search_oom) {
        continue;
      }
      if (!wl.is_search && result.kv_oom) {
        continue;
      }
      if (next == nullptr || wl.lane.now_ns() < next->lane.now_ns()) {
        next = &wl;
      }
    }
    if (next == nullptr) {
      break;
    }
    if (next->is_search) {
      auto matches =
          searcher->SearchOneFile(next->lane, file_cursor, pattern);
      if (!matches.ok()) {
        if (matches.status().code() == ErrorCode::kResourceExhausted) {
          result.search_oom = true;
          continue;
        }
        return matches.status();
      }
      file_cursor = (file_cursor + 1) % nr_files;
      ++files_searched;
    } else {
      const workloads::KvOp op = kv_generator->Next(next->lane.rng());
      const Status status = ExecuteOp(db, next->lane, op, value_size);
      if (IsOom(status)) {
        result.kv_oom = true;
        continue;
      }
      CACHE_EXT_RETURN_IF_ERROR(status);
      ++kv_ops;
    }
    if (++ops_since_poll >= kAgentPollInterval) {
      ops_since_poll = 0;
      if (options.kv_agent != nullptr) {
        options.kv_agent->Poll();
      }
      if (options.search_agent != nullptr) {
        options.search_agent->Poll();
      }
    }
  }

  const double duration_s = static_cast<double>(options.duration_ns) / 1e9;
  result.kv_throughput_ops = static_cast<double>(kv_ops) / duration_s;
  result.searches_completed =
      nr_files == 0 ? 0
                    : static_cast<double>(files_searched) /
                          static_cast<double>(nr_files);
  return result;
}

}  // namespace cache_ext::harness
