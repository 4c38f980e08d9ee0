// Tests for the cache_ext framework adapter + loader: verifier checks,
// per-cgroup attach/detach, hook dispatch, registry maintenance, candidate
// validation, fallback eviction, and the misbehaviour watchdog.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/cache_ext/framework.h"
#include "src/cache_ext/loader.h"
#include "src/pagecache/page_cache.h"
#include "src/policies/classic.h"
#include "src/util/rng.h"

namespace cache_ext {
namespace {

Ops MinimalOps(std::string name) {
  Ops ops;
  ops.name = std::move(name);
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return 0; };
  ops.evict_folios = [](CacheExtApi&, EvictionCtx*, MemCgroup*) {};
  ops.folio_added = [](CacheExtApi&, Folio*) {};
  ops.folio_accessed = [](CacheExtApi&, Folio*) {};
  ops.folio_removed = [](CacheExtApi&, Folio*) {};
  return ops;
}

// --- Verifier ---------------------------------------------------------------

TEST(LoaderVerifyTest, AcceptsMinimalOps) {
  EXPECT_TRUE(CacheExtLoader::Verify(MinimalOps("ok_policy")).ok());
}

TEST(LoaderVerifyTest, RejectsEmptyName) {
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("")).ok());
}

TEST(LoaderVerifyTest, RejectsOverlongName) {
  EXPECT_FALSE(
      CacheExtLoader::Verify(MinimalOps(std::string(64, 'a'))).ok());
  EXPECT_TRUE(CacheExtLoader::Verify(MinimalOps(std::string(63, 'a'))).ok());
}

TEST(LoaderVerifyTest, RejectsBadCharacters) {
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("bad name")).ok());
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("bad/name")).ok());
  // Hyphens are not valid in kernel struct_ops names: [A-Za-z0-9_] only.
  EXPECT_FALSE(CacheExtLoader::Verify(MinimalOps("good_name-2")).ok());
  EXPECT_TRUE(CacheExtLoader::Verify(MinimalOps("good_name_2")).ok());
}

TEST(LoaderVerifyTest, RejectsMissingPrograms) {
  Ops ops = MinimalOps("p");
  ops.evict_folios = nullptr;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
  ops = MinimalOps("p");
  ops.policy_init = nullptr;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
  ops = MinimalOps("p");
  ops.folio_accessed = nullptr;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
}

TEST(LoaderVerifyTest, RejectsZeroBudget) {
  Ops ops = MinimalOps("p");
  ops.helper_budget = 0;
  EXPECT_FALSE(CacheExtLoader::Verify(ops).ok());
}

// --- Framework fixture -------------------------------------------------------

class FrameworkTest : public ::testing::Test {
 protected:
  FrameworkTest() {
    SsdModelOptions ssd_options;
    ssd_options.read_latency_ns = 1000;
    ssd_options.write_latency_ns = 1000;
    ssd_ = std::make_unique<SsdModel>(ssd_options);
    PageCacheOptions options;
    options.max_readahead_pages = 0;  // exact counts: no prefetch noise
    pc_ = std::make_unique<PageCache>(&disk_, ssd_.get(), options);
    loader_ = std::make_unique<CacheExtLoader>(pc_.get());
    cg_ = pc_->CreateCgroup("/fw", 16 * kPageSize);
  }

  Lane MakeLane() { return Lane(0, TaskContext{1, 2}, 99); }

  void TouchPages(Lane& lane, AddressSpace* as, uint64_t first,
                  uint64_t count) {
    std::vector<uint8_t> buf(kPageSize);
    for (uint64_t i = first; i < first + count; ++i) {
      ASSERT_TRUE(
          pc_->Read(lane, as, cg_, i * kPageSize, std::span<uint8_t>(buf))
              .ok());
    }
  }

  SimDisk disk_;
  std::unique_ptr<SsdModel> ssd_;
  std::unique_ptr<PageCache> pc_;
  std::unique_ptr<CacheExtLoader> loader_;
  MemCgroup* cg_;
};

TEST_F(FrameworkTest, AttachRunsPolicyInit) {
  bool init_ran = false;
  Ops ops = MinimalOps("attach_test");
  ops.policy_init = [&init_ran](CacheExtApi& api, MemCgroup* cg) -> int32_t {
    EXPECT_NE(cg, nullptr);
    init_ran = api.ListCreate().ok();
    return 0;
  };
  auto policy = loader_->Attach(cg_, std::move(ops));
  ASSERT_TRUE(policy.ok());
  EXPECT_TRUE(init_ran);
  EXPECT_EQ(pc_->ext_policy(cg_), *policy);
  EXPECT_EQ((*policy)->name(), "attach_test");
}

TEST_F(FrameworkTest, AttachFailsWhenInitFails) {
  Ops ops = MinimalOps("failing_init");
  ops.policy_init = [](CacheExtApi&, MemCgroup*) -> int32_t { return -22; };
  EXPECT_FALSE(loader_->Attach(cg_, std::move(ops)).ok());
  EXPECT_EQ(pc_->ext_policy(cg_), nullptr);
}

TEST_F(FrameworkTest, AttachFailsWhenInitExhaustsBudget) {
  Ops ops = MinimalOps("greedy_init");
  ops.helper_budget = 2;
  ops.policy_init = [](CacheExtApi& api, MemCgroup*) -> int32_t {
    for (int i = 0; i < 10; ++i) {
      (void)api.ListCreate();
    }
    return 0;
  };
  EXPECT_EQ(loader_->Attach(cg_, std::move(ops)).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(FrameworkTest, DoubleAttachRejected) {
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("first")).ok());
  EXPECT_EQ(loader_->Attach(cg_, MinimalOps("second")).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(FrameworkTest, DetachRestoresBasePolicy) {
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("temp")).ok());
  ASSERT_TRUE(loader_->Detach(cg_).ok());
  EXPECT_EQ(pc_->ext_policy(cg_), nullptr);
  EXPECT_FALSE(loader_->Detach(cg_).ok());  // nothing attached
}

TEST_F(FrameworkTest, PerCgroupIsolation) {
  MemCgroup* other = pc_->CreateCgroup("/other", 16 * kPageSize);
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("policy_a")).ok());
  ASSERT_TRUE(loader_->Attach(other, MinimalOps("policy_b")).ok());
  EXPECT_EQ(pc_->ext_policy(cg_)->name(), "policy_a");
  EXPECT_EQ(pc_->ext_policy(other)->name(), "policy_b");
}

TEST_F(FrameworkTest, HooksFireOnCacheEvents) {
  int added = 0;
  int accessed = 0;
  int removed = 0;
  Ops ops = MinimalOps("counting");
  ops.folio_added = [&added](CacheExtApi&, Folio*) { ++added; };
  ops.folio_accessed = [&accessed](CacheExtApi&, Folio*) { ++accessed; };
  ops.folio_removed = [&removed](CacheExtApi&, Folio*) { ++removed; };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());

  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 1);
  EXPECT_EQ(added, 1);
  EXPECT_GE(accessed, 1);
  TouchPages(lane, *as, 0, 1);  // hit
  EXPECT_GE(accessed, 2);
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  EXPECT_EQ(removed, 1);
}

TEST_F(FrameworkTest, RegistryTracksResidency) {
  auto policy = loader_->Attach(cg_, MinimalOps("registry_check"));
  ASSERT_TRUE(policy.ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 4);
  EXPECT_EQ((*policy)->registry().Size(), 4u);
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  EXPECT_EQ((*policy)->registry().Size(), 0u);
}

TEST_F(FrameworkTest, AttachIntroducesPreexistingFolios) {
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/pre");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 5);  // resident before attach

  auto policy = loader_->Attach(cg_, MinimalOps("late"));
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ((*policy)->registry().Size(), 5u);
}

TEST_F(FrameworkTest, ReattachAfterDetachLeavesNoStaleOwnerTag) {
  auto lfu = loader_->Attach(cg_, policies::MakeLfuOps());
  ASSERT_TRUE(lfu.ok());
  const uint64_t lfu_owner = (*lfu)->registry().id();
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 48);  // 3x the 16-page limit: lfu evicts
  ASSERT_TRUE(loader_->Detach(cg_).ok());

  auto resident_folios = [&] {
    std::vector<Folio*> out;
    (*as)->pages().ForEach([&out](uint64_t, XEntry entry) {
      if (Folio* folio = entry.AsPointer<Folio>(); folio != nullptr) {
        out.push_back(folio);
      }
    });
    return out;
  };
  const std::vector<Folio*> resident = resident_folios();
  ASSERT_FALSE(resident.empty());
  for (Folio* folio : resident) {
    // Detach leaves the departed attachment's tag on the survivors.
    EXPECT_EQ(folio->ext.owner, lfu_owner);
  }

  // Re-attach a different policy with those folios still resident.
  auto fifo = loader_->Attach(cg_, policies::MakeFifoOps());
  ASSERT_TRUE(fifo.ok());
  FolioRegistry& registry = (*fifo)->registry();
  EXPECT_NE(registry.id(), lfu_owner);
  EXPECT_EQ(registry.Size(), resident.size());
  EXPECT_EQ(registry.Size(), cg_->charged_pages());
  for (Folio* folio : resident) {
    EXPECT_TRUE(registry.Owns(folio));
    EXPECT_TRUE(registry.Contains(folio));
  }

  // Evicting the introduced folios goes through fifo's lists alone.
  const uint64_t fallback_before = pc_->StatsFor(cg_).fallback_evictions;
  const uint64_t evictions_before = cg_->stat_evictions.load();
  TouchPages(lane, *as, 64, 48);
  EXPECT_GT(cg_->stat_evictions.load(), evictions_before);
  EXPECT_EQ(pc_->StatsFor(cg_).fallback_evictions, fallback_before);
  const std::vector<Folio*> now_resident = resident_folios();
  EXPECT_EQ(registry.Size(), now_resident.size());
  for (Folio* folio : now_resident) {
    EXPECT_EQ(folio->ext.owner, registry.id());
    EXPECT_NE(folio->ext.owner, lfu_owner);
  }
}

TEST_F(FrameworkTest, EvictionUsesPolicyProposals) {
  // A policy that tracks folios FIFO and proposes them.
  ASSERT_TRUE(loader_->Attach(cg_, policies::MakeFifoOps()).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 64);  // 4x the 16-page limit
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  EXPECT_GT(cg_->stat_evictions.load(), 0u);
  // FIFO proposals satisfied reclaim; fallback unused.
  EXPECT_EQ(pc_->StatsFor(cg_).fallback_evictions, 0u);
}

TEST_F(FrameworkTest, UnderProposingPolicyFallsBack) {
  // MinimalOps proposes nothing -> every eviction comes from the fallback.
  ASSERT_TRUE(loader_->Attach(cg_, MinimalOps("lazy")).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 64);
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  EXPECT_GT(pc_->StatsFor(cg_).fallback_evictions, 0u);
  EXPECT_FALSE(pc_->StatsFor(cg_).oom_killed);
}

TEST_F(FrameworkTest, InvalidCandidatesRejectedAndCounted) {
  // A malicious policy proposing garbage pointers.
  Folio decoy;  // never registered
  Ops ops = MinimalOps("malicious");
  ops.evict_folios = [&decoy](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    ctx->Propose(&decoy);
    ctx->Propose(reinterpret_cast<Folio*>(0x1234));
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 128 * kPageSize).ok());
  TouchPages(lane, *as, 0, 32);
  EXPECT_GT(pc_->StatsFor(cg_).ext_violations, 0u);
  // The kernel survives: fallback kept the cgroup under its limit.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FrameworkTest, BreakerDegradesEvictHookOfPersistentOffender) {
  // A policy that only spews garbage candidates trips its evict-hook
  // circuit breaker: that hook degrades to the default-policy fallback while
  // the policy as a whole stays attached (single-hook failure domain).
  Folio decoy;
  Ops ops = MinimalOps("offender");
  ops.evict_folios = [&decoy](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    for (int i = 0; i < 8; ++i) {
      ctx->Propose(&decoy);
    }
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 512 * kPageSize).ok());
  TouchPages(lane, *as, 0, 256);  // heavy pressure, many violations
  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  // The breaker cut the violation stream off on rate, long before the
  // lifetime limit (kHardViolationLimit) could detach the policy.
  EXPECT_GT(stats.ext_violations, 0u);
  EXPECT_LT(stats.ext_violations, 50u);
  EXPECT_FALSE(stats.ext_detached_by_watchdog);
  EXPECT_NE(stats.ext_degraded_hook_mask & HookBit(Hook::kEvictFolios),
            0u);
  EXPECT_GE(stats.ext_hook_trip_counts[static_cast<size_t>(Hook::kEvictFolios)],
            1u);
  // With the evict hook degraded the base policy drives eviction directly.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  EXPECT_GT(stats.fallback_evictions, 0u);
}

TEST_F(FrameworkTest, SporadicOffenderDetachesAtBreakerLifetimeLimit) {
  // One invalid candidate on every other evict_folios call: three evict-hook
  // records per two calls, one a violation, so the rate stays under the
  // trip rate of one half and the hook never degrades. The breaker's
  // lifetime limit is then the only thing that stops the policy, and it
  // must stop it exactly there — for an unregistered folio and for a null
  // pointer alike, each in a fresh cgroup.
  const uint64_t limit = HookCircuitBreaker::kHardViolationLimit;
  ASSERT_EQ(limit, 128u);
  Folio decoy;  // never registered
  const std::array<Folio*, 2> invalid_candidates = {&decoy, nullptr};
  for (size_t n = 0; n < invalid_candidates.size(); ++n) {
    Folio* const candidate = invalid_candidates[n];
    SCOPED_TRACE(candidate == nullptr ? "null candidate" : "decoy candidate");
    if (n > 0) {
      cg_ = pc_->CreateCgroup("/fw_sporadic_" + std::to_string(n),
                              16 * kPageSize);
    }
    uint64_t evict_calls = 0;
    Ops ops = MinimalOps("sporadic");
    ops.evict_folios = [candidate, &evict_calls](CacheExtApi&,
                                                 EvictionCtx* ctx,
                                                 MemCgroup*) {
      if (evict_calls++ % 2 == 0) {
        ctx->Propose(candidate);
      }
    };
    ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
    Lane lane = MakeLane();
    auto as = pc_->OpenFile("/f" + std::to_string(n));
    ASSERT_TRUE(as.ok());
    constexpr uint64_t kPages = 4096;
    ASSERT_TRUE(disk_.Truncate((*as)->file(), kPages * kPageSize).ok());
    const auto evict = static_cast<size_t>(Hook::kEvictFolios);
    bool detached = false;
    for (uint64_t page = 0; page < kPages && !detached; ++page) {
      TouchPages(lane, *as, page, 1);
      const CgroupCacheStats stats = pc_->StatsFor(cg_);
      ASSERT_EQ(stats.ext_degraded_hook_mask, 0u) << "page " << page;
      ASSERT_EQ(stats.ext_hook_trip_counts[evict], 0u) << "page " << page;
      ASSERT_LE(stats.ext_violations, limit) << "page " << page;
      detached = stats.ext_detached_by_watchdog;
      ASSERT_EQ(detached, stats.ext_violations == limit)
          << "page " << page << ": " << stats.ext_violations
          << " violations";
    }
    ASSERT_TRUE(detached);
    // Latched: the policy is no longer asked, so the count stays put.
    const uint64_t calls_at_detach = evict_calls;
    TouchPages(lane, *as, 0, 64);
    const CgroupCacheStats after = pc_->StatsFor(cg_);
    EXPECT_EQ(after.ext_violations, limit);
    EXPECT_EQ(evict_calls, calls_at_detach);
    EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
  }
}

// Broken on two fronts — garbage eviction candidates AND a folio_added
// program that always exhausts its helper budget. Two tripped hooks
// escalate to a full watchdog detach (§4.4).
Ops MultiHookOffenderOps(Folio* decoy) {
  Ops ops = MinimalOps("multi_offender");
  ops.helper_budget = 2;
  ops.evict_folios = [decoy](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    for (int i = 0; i < 8; ++i) {
      ctx->Propose(decoy);
    }
  };
  ops.folio_added = [](CacheExtApi& api, Folio*) {
    for (int i = 0; i < 4; ++i) {
      (void)api.ListCreate();  // blows the 2-call budget: program aborts
    }
  };
  return ops;
}

TEST_F(FrameworkTest, WatchdogDetachesMultiHookOffender) {
  Folio decoy;
  ASSERT_TRUE(loader_->Attach(cg_, MultiHookOffenderOps(&decoy)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 512 * kPageSize).ok());
  TouchPages(lane, *as, 0, 256);
  const CgroupCacheStats stats = pc_->StatsFor(cg_);
  EXPECT_TRUE(stats.ext_detached_by_watchdog);
  // Both hooks show in the trip counts.
  EXPECT_GE(stats.ext_hook_trip_counts[static_cast<size_t>(Hook::kEvictFolios)],
            1u);
  EXPECT_GE(stats.ext_hook_trip_counts[static_cast<size_t>(Hook::kFolioAdded)],
            1u);
  // After the watchdog fires, the base policy drives eviction directly.
  EXPECT_LE(cg_->charged_pages(), cg_->limit_pages());
}

TEST_F(FrameworkTest, LatchedPolicyStillReleasesRemovedFolios) {
  // The watchdog latches the offender off mid-run; until it is detached its
  // registry chain still runs through the folios themselves, so every folio
  // that leaves the cache must leave the registry too — with no policy code
  // run for it.
  Folio decoy;
  auto policy = loader_->Attach(cg_, MultiHookOffenderOps(&decoy));
  ASSERT_TRUE(policy.ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 512 * kPageSize).ok());
  TouchPages(lane, *as, 0, 256);
  ASSERT_TRUE(pc_->StatsFor(cg_).ext_detached_by_watchdog);
  const FolioRegistry& registry = (*policy)->registry();
  EXPECT_LE(registry.Size(), cg_->charged_pages());
  const uint64_t invocations_before =
      (*policy)->HookHealth().invocations[static_cast<size_t>(
          Hook::kFolioRemoved)];
  ASSERT_TRUE(
      pc_->FadviseRange(lane, *as, cg_, Fadvise::kDontNeed, 0, 0).ok());
  EXPECT_EQ(cg_->charged_pages(), 0u);
  EXPECT_EQ(registry.Size(), 0u);
  EXPECT_EQ((*policy)->HookHealth().invocations[static_cast<size_t>(
                Hook::kFolioRemoved)],
            invocations_before);
}

TEST_F(FrameworkTest, ForeignCgroupFolioRejected) {
  // A policy attached to cgroup A proposing a folio owned by cgroup B: the
  // pointer is a live folio, but it is not in A's registry — the kernel must
  // reject it (cross-cgroup eviction attack) and count a violation.
  MemCgroup* victim_cg = pc_->CreateCgroup("/victim", 16 * kPageSize);
  Lane lane = MakeLane();
  auto victim_as = pc_->OpenFile("/victim_file");
  ASSERT_TRUE(victim_as.ok());
  ASSERT_TRUE(disk_.Truncate((*victim_as)->file(), 16 * kPageSize).ok());
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(
      pc_->Read(lane, *victim_as, victim_cg, 0, std::span<uint8_t>(buf)).ok());
  Folio* foreign = (*victim_as)->FindFolio(0);
  ASSERT_NE(foreign, nullptr);

  Ops ops = MinimalOps("cross_cgroup");
  ops.evict_folios = [foreign](CacheExtApi&, EvictionCtx* ctx, MemCgroup*) {
    ctx->Propose(foreign);
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 32);  // pressure in cg_ -> malicious proposals
  EXPECT_GT(pc_->StatsFor(cg_).ext_violations, 0u);
  // The foreign folio survived.
  EXPECT_EQ((*victim_as)->FindFolio(0), foreign);
}

TEST_F(FrameworkTest, ProgramBudgetAbortCounted) {
  Ops ops = MinimalOps("hog");
  ops.helper_budget = 4;
  ops.folio_added = [](CacheExtApi& api, Folio*) {
    for (int i = 0; i < 100; ++i) {
      (void)api.CurrentPid();  // burns helper budget
    }
  };
  auto policy = loader_->Attach(cg_, std::move(ops));
  ASSERT_TRUE(policy.ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 2);
  EXPECT_GE((*policy)->HookHealth().violations[static_cast<size_t>(
                Hook::kFolioAdded)],
            2u);
}

TEST_F(FrameworkTest, AdmissionFilterHookConsulted) {
  int asked = 0;
  Ops ops = MinimalOps("filter");
  ops.admit_folio = [&asked](CacheExtApi&, const AdmissionCtx& ctx) {
    ++asked;
    return ctx.index % 2 == 0;  // admit only even pages
  };
  ASSERT_TRUE(loader_->Attach(cg_, std::move(ops)).ok());
  Lane lane = MakeLane();
  auto as = pc_->OpenFile("/f");
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(disk_.Truncate((*as)->file(), 64 * kPageSize).ok());
  TouchPages(lane, *as, 0, 4);
  EXPECT_EQ(asked, 4);
  EXPECT_NE((*as)->FindFolio(0), nullptr);
  EXPECT_EQ((*as)->FindFolio(1), nullptr);  // rejected: direct I/O
  EXPECT_NE((*as)->FindFolio(2), nullptr);
  EXPECT_EQ(pc_->StatsFor(cg_).direct_reads, 2u);
}

TEST_F(FrameworkTest, AttachToNullCgroupRejected) {
  EXPECT_FALSE(loader_->Attach(nullptr, MinimalOps("x")).ok());
}

// --- Circuit breaker: count-only success path vs the locked algorithm -------

// The breaker's Record() as it was when every outcome took the mutex: the
// reference the count-only success path must reproduce exactly.
class ReferenceBreaker {
 public:
  bool Record(Hook hook, bool violation) {
    HookState& st = hooks_[static_cast<size_t>(hook)];
    ++st.window_invocations;
    ++st.total_invocations;
    if (violation) {
      ++st.window_violations;
      ++st.total_violations;
    }
    bool newly_tripped = false;
    if (!st.tripped &&
        st.window_invocations >= HookCircuitBreaker::kMinSamples &&
        2 * st.window_violations >= st.window_invocations) {
      st.tripped = true;
      ++st.trips;
      newly_tripped = true;
      degraded_mask_ |= HookBit(hook);
    }
    if (st.window_invocations >= HookCircuitBreaker::kWindow) {
      st.window_invocations /= 2;
      st.window_violations /= 2;
    }
    if (!escalated_) {
      uint32_t tripped_hooks = 0;
      for (const HookState& h : hooks_) {
        tripped_hooks += h.tripped ? 1 : 0;
      }
      if (tripped_hooks >= HookCircuitBreaker::kHooksToDetach ||
          st.total_violations >= HookCircuitBreaker::kHardViolationLimit) {
        escalated_ = true;
      }
    }
    return newly_tripped;
  }

  uint32_t degraded_mask() const { return degraded_mask_; }
  bool escalated() const { return escalated_; }

  PolicyHookHealth Health() const {
    PolicyHookHealth health;
    health.degraded_mask = degraded_mask_;
    health.escalate_detach = escalated_;
    for (size_t i = 0; i < kNumHooks; ++i) {
      health.trips[i] = hooks_[i].trips;
      health.violations[i] = hooks_[i].total_violations;
      health.invocations[i] = hooks_[i].total_invocations;
    }
    return health;
  }

 private:
  struct HookState {
    uint64_t window_invocations = 0;
    uint64_t window_violations = 0;
    uint64_t total_invocations = 0;
    uint64_t total_violations = 0;
    uint64_t trips = 0;
    bool tripped = false;
  };

  std::array<HookState, kNumHooks> hooks_{};
  uint32_t degraded_mask_ = 0;
  bool escalated_ = false;
};

void ExpectSameHealth(const PolicyHookHealth& got,
                      const PolicyHookHealth& want, uint64_t seq) {
  EXPECT_EQ(got.degraded_mask, want.degraded_mask) << "sequence " << seq;
  EXPECT_EQ(got.escalate_detach, want.escalate_detach) << "sequence " << seq;
  EXPECT_EQ(got.trips, want.trips) << "sequence " << seq;
  EXPECT_EQ(got.violations, want.violations) << "sequence " << seq;
  EXPECT_EQ(got.invocations, want.invocations) << "sequence " << seq;
}

TEST(HookCircuitBreakerTest, CountOnlySuccessesMatchLockedReference) {
  // A pinned input first: the fixed thresholds, as behaviour. A fresh hook
  // fed only violations is not degraded after kMinSamples - 1 = 15 records
  // and is degraded on the 16th; a second tripped hook escalates.
  {
    HookCircuitBreaker breaker;
    ReferenceBreaker reference;
    for (const Hook hook : {Hook::kEvictFolios, Hook::kFolioAdded}) {
      for (int record = 1; record <= 16; ++record) {
        const bool tripped = record == 16;
        ASSERT_EQ(breaker.Record(hook, true), tripped) << record;
        ASSERT_EQ(reference.Record(hook, true), tripped) << record;
        ASSERT_EQ(breaker.Degraded(hook), tripped) << record;
      }
      ASSERT_EQ(breaker.escalated(), hook == Hook::kFolioAdded);
      ExpectSameHealth(breaker.Health(), reference.Health(), 0);
    }
    EXPECT_EQ(breaker.degraded_mask(),
              HookBit(Hook::kEvictFolios) | HookBit(Hook::kFolioAdded));
  }

  Rng rng(0xb4ea4e5);
  constexpr uint64_t kSequences = 12000;
  for (uint64_t seq = 0; seq < kSequences; ++seq) {
    HookCircuitBreaker breaker;
    ReferenceBreaker reference;
    // Few hooks per sequence so windows fill; a per-sequence violation
    // rate from clean to mostly failing. Hook 0 is kPolicyInit, which the
    // breaker never sees.
    const uint64_t nr_hooks = rng.NextU64InRange(1, kNumHooks - 1);
    static constexpr double kViolationRates[] = {0.0, 0.01, 0.1, 0.4, 0.8};
    const double violation_rate = kViolationRates[rng.NextU64Below(5)];
    const uint64_t length = rng.NextU64InRange(1, 400);
    for (uint64_t step = 0; step < length; ++step) {
      const auto hook = static_cast<Hook>(1 + rng.NextU64Below(nr_hooks));
      const bool violation = rng.NextBool(violation_rate);
      ASSERT_EQ(breaker.Record(hook, violation),
                reference.Record(hook, violation))
          << "sequence " << seq << " step " << step;
      ASSERT_EQ(breaker.degraded_mask(), reference.degraded_mask())
          << "sequence " << seq << " step " << step;
      ASSERT_EQ(breaker.escalated(), reference.escalated())
          << "sequence " << seq << " step " << step;
      if (rng.NextBool(0.02)) {
        // A mid-sequence read folds the pending counts early; the outcome
        // stream after it must not change.
        ExpectSameHealth(breaker.Health(), reference.Health(), seq);
      }
    }
    ExpectSameHealth(breaker.Health(), reference.Health(), seq);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace cache_ext
