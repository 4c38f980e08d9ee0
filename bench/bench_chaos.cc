// Chaos soak: every built-in policy driven through a long deterministic
// fault storm (the heavyweight sibling of tests/chaos_test.cc).
//
// Each arm attaches one catalog policy, warms it, then arms every kernel-
// side fault point with probabilistic schedules (fixed seeds — the storm is
// reproducible run-to-run) and pushes a mixed hot/cold read workload
// through the cgroup while verifying every served page against the backing
// disk. The table reports what the failure-domain machinery did: injected
// fault fires, invalid eviction candidates (ext_violations), the circuit
// breaker's violations and trips summed over hooks (a detach with no trip
// is the breaker's lifetime violation limit), which hooks are degraded,
// whether the breaker escalated to a detach, and the hit rate
// before/during/after the storm. Built with CACHE_EXT_SANITIZE=address (tools/check.sh --chaos)
// this doubles as the memory-safety soak for the §4.4 hardening.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache_ext/loader.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/policy_factory.h"

namespace cache_ext::bench {
namespace {

constexpr uint64_t kFilePages = 2048;
constexpr uint64_t kHotPages = 256;
constexpr uint64_t kCgroupPages = 512;
constexpr uint64_t kWarmOps = 2000;
constexpr uint64_t kStormOps = 20000;
constexpr uint64_t kRecoveryOps = 4000;

uint8_t PatternByte(uint64_t page) {
  return static_cast<uint8_t>((page * 37 + 11) & 0xFF);
}

class AccessStream {
 public:
  explicit AccessStream(uint64_t seed) : state_(seed) {}
  uint64_t NextPage() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t roll = (state_ >> 33) % 100;
    const uint64_t raw = state_ >> 17;
    return roll < 75 ? raw % kHotPages : raw % kFilePages;
  }

 private:
  uint64_t state_;
};

void ArmStorm() {
  fault::FaultSchedule p;
  p.probability = 0.05;
  uint64_t seed = 9000;
  for (std::string_view point :
       {fault::points::kBpfMapUpdate, fault::points::kBpfMapLookup,
        fault::points::kBpfRingbufReserve, fault::points::kBpfRunAbort,
        fault::points::kCandidateCorrupt, fault::points::kListOp}) {
    p.seed = ++seed;
    fault::FaultInjector::Global().Arm(point, p);
  }
  fault::FaultSchedule storm;
  storm.probability = 0.02;
  storm.seed = ++seed;
  storm.magnitude = 16;
  fault::FaultInjector::Global().Arm(fault::points::kBpfLruEvictStorm, storm);
  fault::FaultSchedule shrink;
  shrink.probability = 0.05;
  shrink.seed = ++seed;
  shrink.magnitude = 8;
  fault::FaultInjector::Global().Arm(fault::points::kBpfRunBudgetShrink,
                                     shrink);
}

struct Arm {
  SimDisk disk;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<PageCache> pc;
  std::unique_ptr<CacheExtLoader> loader;
  MemCgroup* cg = nullptr;
  AddressSpace* as = nullptr;
  CacheExtPolicy* policy = nullptr;  // null for the "default" arm
  Lane lane{0, TaskContext{1, 2}, 21};
  uint64_t content_errors = 0;
  uint64_t io_errors = 0;
};

std::unique_ptr<Arm> MakeArm(std::string_view policy_name) {
  auto arm = std::make_unique<Arm>();
  SsdModelOptions ssd_options;
  ssd_options.read_latency_ns = 1000;
  ssd_options.write_latency_ns = 1000;
  arm->ssd = std::make_unique<SsdModel>(ssd_options);
  arm->pc = std::make_unique<PageCache>(&arm->disk, arm->ssd.get());
  arm->loader = std::make_unique<CacheExtLoader>(arm->pc.get());
  arm->cg = arm->pc->CreateCgroup("/soak", kCgroupPages * kPageSize);
  auto as = arm->pc->OpenFile("/data");
  CHECK(as.ok());
  arm->as = *as;
  CHECK(arm->disk.Truncate(arm->as->file(), kFilePages * kPageSize).ok());
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t i = 0; i < kFilePages; ++i) {
    std::fill(page.begin(), page.end(), PatternByte(i));
    CHECK(arm->disk
              .WriteAt(arm->as->file(), i * kPageSize,
                       std::span<const uint8_t>(page))
              .ok());
  }
  if (policy_name != "default") {
    policies::PolicyParams params;
    params.capacity_pages = arm->cg->limit_pages();
    auto bundle = policies::MakePolicy(policy_name, params);
    CHECK(bundle.ok());
    auto attached = arm->loader->Attach(arm->cg, std::move(bundle->ops),
                                        arm->pc->options().costs);
    CHECK(attached.ok());
    arm->policy = *attached;
  }
  return arm;
}

double Drive(Arm& arm, AccessStream& stream, uint64_t ops) {
  const uint64_t hits0 = arm.cg->stat_hits.load();
  const uint64_t misses0 = arm.cg->stat_misses.load();
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t page = stream.NextPage();
    Status st = arm.pc->Read(arm.lane, arm.as, arm.cg, page * kPageSize,
                             std::span<uint8_t>(buf));
    if (!st.ok()) {
      ++arm.io_errors;
      continue;
    }
    for (uint8_t b : buf) {
      if (b != PatternByte(page)) {
        ++arm.content_errors;
        break;
      }
    }
  }
  const double hits = static_cast<double>(arm.cg->stat_hits.load() - hits0);
  const double misses =
      static_cast<double>(arm.cg->stat_misses.load() - misses0);
  return hits + misses == 0 ? 0.0 : hits / (hits + misses);
}

std::string MaskToString(uint32_t mask) {
  if (mask == 0) {
    return "-";
  }
  std::string out;
  for (uint32_t i = 0; i < kNumHooks; ++i) {
    if (mask & (1u << i)) {
      if (!out.empty()) {
        out += "+";
      }
      out += HookName(static_cast<Hook>(i));
    }
  }
  return out;
}

std::string Pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * v);
  return buf;
}

int Main() {
  harness::Table table(
      "Chaos soak — kernel fault storm per policy (deterministic seeds)",
      {"policy", "warm hit", "storm hit", "recovered hit", "fault fires",
       "ext_violations", "hook violations", "hook trips", "degraded hooks",
       "detached", "content errs"});

  std::vector<std::string> policies = {"default"};
  for (std::string_view name : policies::AvailablePolicies()) {
    policies.emplace_back(name);
  }

  for (const std::string& name : policies) {
    auto arm = MakeArm(name);
    AccessStream stream(4242);
    const double warm = Drive(*arm, stream, kWarmOps);
    const uint64_t fires0 = fault::FaultInjector::Global().total_fires();
    ArmStorm();
    const double stormy = Drive(*arm, stream, kStormOps);
    fault::FaultInjector::Global().DisarmAll();
    const uint64_t fires =
        fault::FaultInjector::Global().total_fires() - fires0;
    const double recovered = Drive(*arm, stream, kRecoveryOps);
    const CgroupCacheStats stats = arm->pc->StatsFor(arm->cg);
    uint64_t hook_violations = 0;
    if (arm->policy != nullptr) {
      for (const uint64_t v : arm->policy->HookHealth().violations) {
        hook_violations += v;
      }
    }
    uint64_t hook_trips = 0;
    for (const uint64_t trips : stats.ext_hook_trip_counts) {
      hook_trips += trips;
    }
    table.AddRow({name, Pct(warm), Pct(stormy), Pct(recovered),
                  std::to_string(fires), std::to_string(stats.ext_violations),
                  std::to_string(hook_violations), std::to_string(hook_trips),
                  MaskToString(stats.ext_degraded_hook_mask),
                  stats.ext_detached_by_watchdog ? "yes" : "no",
                  std::to_string(arm->content_errors)});
    CHECK_EQ(arm->content_errors, 0u);  // no corrupted page ever served
    CHECK_EQ(arm->io_errors, 0u);       // no device faults in this storm
    CHECK(!stats.oom_killed);
  }
  table.Print();
  std::printf(
      "\nProperties held: every page served matched the backing disk, no\n"
      "cgroup was OOM-killed, and reclaim never stalled while ~%.0f%% of\n"
      "kernel-side operations were failing.\n",
      5.0);
  return 0;
}

}  // namespace
}  // namespace cache_ext::bench

int main() { return cache_ext::bench::Main(); }
