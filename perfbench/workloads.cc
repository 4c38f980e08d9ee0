#include "perfbench/workloads.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

using cache_ext::AddressSpace;
using cache_ext::Expected;
using cache_ext::kPageSize;
using cache_ext::Lane;
using cache_ext::MemCgroup;
using cache_ext::PageCache;
using cache_ext::Status;
using cache_ext::TaskContext;

namespace {

constexpr uint64_t kMiB = uint64_t{1} << 20;
constexpr char kFileName[] = "perfbench.dat";
constexpr uint64_t kFileNo = 1;

// Why each workload exists is recorded in BENCHMARK.json and
// perfbench/METRICS.md; the shapes follow the Table 4 randread and the Fig. 6
// YCSB set-ups.
const WorkloadSpec kWorkloads[] = {
    {.name = "randread_lfu",
     .kind = WorkloadKind::kPageRead,
     .cgroup_bytes = 32 * kMiB,
     .policy = "lfu",
     .file_bytes = 96 * kMiB,
     .records = 0,
     .value_bytes = 0,
     .memtable_bytes = 0,
     .warm_ops = 32768},
    {.name = "ycsb_a_lsm",
     .kind = WorkloadKind::kYcsbA,
     .cgroup_bytes = 20000ull * 2048 / 10,
     .policy = "lfu",
     .file_bytes = 0,
     .records = 20000,
     .value_bytes = 2048,
     .memtable_bytes = kMiB,
     .warm_ops = 20000},
};

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Every 8-byte word of page `page` of the file holds this stamp.
uint64_t PageStamp(uint64_t page) {
  return (uint64_t{0x5042} << 48) | (kFileNo << 40) | page;
}

bool PageMatches(const uint8_t* data, uint64_t page) {
  const uint64_t want = PageStamp(page);
  uint64_t diff = 0;
  for (size_t i = 0; i < kPageSize; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    diff |= word ^ want;
  }
  return diff == 0;
}

std::string KeyFor(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(index));
  return buf;
}

// Value of key `index` at `version`: word 0 holds the key index, word 1 the
// version, the rest a pattern derived from both.
void FillValue(uint64_t index, uint32_t version, uint32_t size,
               std::string* out) {
  out->resize(size);
  const uint64_t base = Mix64((index << 32) | version);
  for (uint32_t off = 0; off + sizeof(uint64_t) <= size;
       off += sizeof(uint64_t)) {
    const uint64_t i = off / sizeof(uint64_t);
    const uint64_t word =
        i == 0 ? index : i == 1 ? version : base ^ (i * 0x9E3779B97F4A7C15ULL);
    std::memcpy(out->data() + off, &word, sizeof(word));
  }
}

std::vector<Lane> MakeLanes(uint64_t seed) {
  std::vector<Lane> lanes;
  for (uint32_t id = 0; id < kLanes; ++id) {
    lanes.emplace_back(id, TaskContext{100, static_cast<int32_t>(100 + id)},
                       Mix64(seed ^ (0x1A2Eull + id)));
  }
  return lanes;
}

class PageReader final : public Client {
 public:
  PageReader(PageCache& cache, AddressSpace* as, MemCgroup* cg,
             uint64_t nr_pages, Rng rng, std::vector<Lane> lanes)
      : cache_(cache),
        as_(as),
        cg_(cg),
        nr_pages_(nr_pages),
        rng_(rng),
        buf_(kPageSize) {
    lanes_ = std::move(lanes);
  }

  void Step(ClientStats& totals, WindowStats& window) override {
    const uint64_t page = rng_.Below(nr_pages_);
    totals.digest = Mix64(totals.digest ^ page);
    Lane& lane = NextLane();
    const uint64_t virtual_start = lane.now_ns();
    if (ThreadTrace* trace = ThreadTrace::Current()) {
      trace->BeginOp();
    }
    const int64_t start = NowNs();
    Status status;
    {
      ScopedSpan span(kPagecacheRead);
      status = cache_.Read(lane, as_, cg_, page * kPageSize, buf_);
    }
    window.read.Record(NowNs() - start);
    totals.model_read.Record(
        static_cast<int64_t>(lane.now_ns() - virtual_start));
    ++window.ops;
    if (!status.ok() || !PageMatches(buf_.data(), page)) {
      ++window.failed;
      Report(page, status);
    }
  }

 private:
  void Report(uint64_t page, const Status& status) {
    if (reported_++ < 5) {
      std::fprintf(stderr, "read of page %llu: %s\n",
                   static_cast<unsigned long long>(page),
                   status.ok() ? "data does not match its stamp"
                               : status.ToString().c_str());
    }
  }

  PageCache& cache_;
  AddressSpace* as_;
  MemCgroup* cg_;
  uint64_t nr_pages_;
  Rng rng_;
  std::vector<uint8_t> buf_;
  int reported_ = 0;
};

// YCSB-A: 50% reads, 50% updates of whole records, scrambled Zipfian keys.
class YcsbClient final : public Client {
 public:
  YcsbClient(cache_ext::lsm::LsmDb* db, std::vector<uint32_t>* versions,
             uint32_t value_bytes, Rng rng, std::vector<Lane> lanes)
      : db_(db),
        versions_(versions),
        value_bytes_(value_bytes),
        rng_(rng),
        zipf_(versions->size(), 0.99) {
    lanes_ = std::move(lanes);
  }

  void Step(ClientStats& totals, WindowStats& window) override {
    const bool read = rng_.Uniform() < 0.5;
    const uint64_t index = zipf_.Next(rng_);
    totals.digest = Mix64(totals.digest ^ (index << 1 | (read ? 1 : 0)));
    const std::string key = KeyFor(index);
    Lane& lane = NextLane();
    ThreadTrace* trace = ThreadTrace::Current();
    if (trace != nullptr) {
      trace->BeginOp();
    }
    bool ok = false;
    if (read) {
      const uint64_t events = EventCounter::ThreadAddedAccessed();
      const uint64_t virtual_start = lane.now_ns();
      const int64_t start = NowNs();
      Expected<std::string> got = [&] {
        ScopedSpan span(kLsmGet);
        return db_->Get(lane, key);
      }();
      window.read.Record(NowNs() - start);
      totals.model_read.Record(
          static_cast<int64_t>(lane.now_ns() - virtual_start));
      totals.get_page_events += EventCounter::ThreadAddedAccessed() - events;
      ++totals.gets;
      if (got.ok()) {
        FillValue(index, (*versions_)[index], value_bytes_, &expected_);
        ok = *got == expected_;
      }
      if (!ok) {
        Report(key, got.status());
      }
    } else {
      const uint32_t version = (*versions_)[index] + 1;
      FillValue(index, version, value_bytes_, &expected_);
      const uint64_t compactions = db_->compactions_run();
      const int64_t start = NowNs();
      Status status;
      {
        ScopedSpan span(kLsmPut);
        status = db_->Put(lane, key, expected_);
      }
      const int64_t elapsed = NowNs() - start;
      window.write.Record(elapsed);
      ++totals.puts;
      totals.put_bytes += key.size() + expected_.size();
      if (db_->compactions_run() != compactions) {
        totals.compaction_stall_ns += elapsed;
      }
      ok = status.ok();
      if (ok) {
        (*versions_)[index] = version;
      } else {
        Report(key, status);
      }
    }
    ++window.ops;
    if (!ok) {
      ++window.failed;
    }
  }

 private:
  void Report(const std::string& key, const Status& status) {
    if (reported_++ < 5) {
      std::fprintf(stderr, "op on %s: %s\n", key.c_str(),
                   status.ok() ? "value does not match its stamp"
                               : status.ToString().c_str());
    }
  }

  cache_ext::lsm::LsmDb* db_;
  std::vector<uint32_t>* versions_;
  uint32_t value_bytes_;
  Rng rng_;
  ScrambledZipfian zipf_;
  std::string expected_;
  int reported_ = 0;
};

Status FillFile(cache_ext::SimDisk& disk, uint64_t bytes) {
  auto file = disk.Create(kFileName);
  CACHE_EXT_RETURN_IF_ERROR(file.status());
  CACHE_EXT_RETURN_IF_ERROR(disk.Truncate(*file, bytes));
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t index = 0; index < bytes / kPageSize; ++index) {
    const uint64_t stamp = PageStamp(index);
    for (size_t off = 0; off < kPageSize; off += sizeof(stamp)) {
      std::memcpy(page.data() + off, &stamp, sizeof(stamp));
    }
    CACHE_EXT_RETURN_IF_ERROR(disk.WriteAt(*file, index * kPageSize, page));
  }
  return Status::Ok();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

}  // namespace

ScrambledZipfian::ScrambledZipfian(uint64_t n, double theta)
    : n_(n), theta_(theta), zetan_(0) {
  for (uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t ScrambledZipfian::Next(Rng& rng) {
  const double u = rng.Uniform();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  // FNV-1a over the rank's bytes, as YCSB's FNVhash64.
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 8; ++i) {
    hash ^= (rank >> (8 * i)) & 0xFF;
    hash *= 1099511628211ULL;
  }
  return hash % n_;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<std::string_view> WorkloadNames() {
  std::vector<std::string_view> names;
  for (const WorkloadSpec& spec : kWorkloads) {
    names.push_back(spec.name);
  }
  return names;
}

Expected<std::unique_ptr<Instance>> Instance::SetUp(const WorkloadSpec& spec,
                                                    uint64_t seed, bool traced,
                                                    SetupTimes* times) {
  std::unique_ptr<Instance> inst(new Instance());
  int64_t start = NowNs();
  inst->env_ = std::make_unique<cache_ext::harness::Env>();
  cache_ext::harness::Env& env = *inst->env_;
  inst->cg_ = env.CreateCgroup("/perfbench", spec.cgroup_bytes);
  MemCgroup* cg = inst->cg_;

  if (spec.kind == WorkloadKind::kPageRead) {
    CACHE_EXT_RETURN_IF_ERROR(FillFile(env.disk(), spec.file_bytes));
    auto as = env.cache().OpenFile(kFileName);
    CACHE_EXT_RETURN_IF_ERROR(as.status());
    inst->client_ = std::make_unique<PageReader>(
        env.cache(), *as, cg, spec.file_bytes / kPageSize, Rng(Mix64(seed)),
        MakeLanes(seed));
  } else {
    cache_ext::lsm::DbOptions db_options;
    db_options.memtable_bytes = spec.memtable_bytes;
    inst->db_ = std::make_unique<cache_ext::lsm::LsmDb>(&env.cache(), cg,
                                                        "ycsb", db_options);
    inst->versions_.assign(spec.records, 0);
    Lane load_lane(0x10AD, TaskContext{1, 1}, seed);
    uint64_t next = 0;
    CACHE_EXT_RETURN_IF_ERROR(inst->db_->BulkLoad(
        load_lane, [&](std::string* key, std::string* value) {
          if (next >= spec.records) {
            return false;
          }
          *key = KeyFor(next);
          FillValue(next, 0, spec.value_bytes, value);
          ++next;
          return true;
        }));
    // Start from a cold cache, like dropping caches after a load.
    for (const std::string& name : env.disk().ListFiles()) {
      auto as = env.cache().OpenFile(name);
      CACHE_EXT_RETURN_IF_ERROR(as.status());
      CACHE_EXT_RETURN_IF_ERROR(env.cache().FadviseRange(
          load_lane, *as, cg, cache_ext::Fadvise::kDontNeed, 0, 0));
    }
    inst->client_ = std::make_unique<YcsbClient>(
        inst->db_.get(), &inst->versions_, spec.value_bytes, Rng(Mix64(seed)),
        MakeLanes(seed));
  }
  times->load_s = SecondsSince(start);

  start = NowNs();
  if (!spec.policy.empty()) {
    if (traced) {
      CACHE_EXT_RETURN_IF_ERROR(AttachTracedPolicy(env.cache(), cg, spec.policy,
                                                   inst->evict_counts_));
    } else {
      auto attached = env.AttachPolicy(cg, spec.policy, {});
      CACHE_EXT_RETURN_IF_ERROR(attached.status());
    }
  }
  times->attach_s = SecondsSince(start);

  start = NowNs();
  ClientStats totals;
  WindowStats window;
  for (uint64_t i = 0; i < spec.warm_ops; ++i) {
    inst->client_->Step(totals, window);
  }
  times->warm_s = SecondsSince(start);
  if (window.failed != 0) {
    return cache_ext::Internal("a warm-up op failed or read a wrong stamp");
  }
  return inst;
}

}  // namespace perfbench
