// Unit + concurrency tests for the valid-folio registry (§4.4).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "src/cache_ext/framework.h"
#include "src/cache_ext/registry.h"
#include "src/cgroup/memcg.h"
#include "src/util/rng.h"

// Counts every global operator new in this test binary, so a test can
// assert that a code path makes no heap allocation.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// All out of line, so GCC never pairs an inlined malloc() or free() with
// the operator at the other end (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cache_ext {
namespace {

TEST(RegistryTest, InsertContainsRemove) {
  FolioRegistry registry(64);
  Folio folio;
  EXPECT_FALSE(registry.Contains(&folio));
  EXPECT_TRUE(registry.Insert(&folio));
  EXPECT_TRUE(registry.Contains(&folio));
  EXPECT_EQ(registry.Size(), 1u);
  EXPECT_TRUE(registry.Remove(&folio));
  EXPECT_FALSE(registry.Contains(&folio));
  EXPECT_EQ(registry.Size(), 0u);
}

TEST(RegistryTest, DoubleInsertRejected) {
  FolioRegistry registry(64);
  Folio folio;
  EXPECT_TRUE(registry.Insert(&folio));
  EXPECT_FALSE(registry.Insert(&folio));
  EXPECT_EQ(registry.Size(), 1u);
}

TEST(RegistryTest, RemoveMissingFails) {
  FolioRegistry registry(64);
  Folio folio;
  EXPECT_FALSE(registry.Remove(&folio));
}

TEST(RegistryTest, GarbagePointersNotContained) {
  FolioRegistry registry(64);
  Folio real;
  registry.Insert(&real);
  // A malicious policy returns arbitrary pointers: never "contained", and
  // Contains never dereferences them.
  EXPECT_FALSE(registry.Contains(reinterpret_cast<Folio*>(0xDEADBEEF)));
  EXPECT_FALSE(registry.Contains(nullptr));
  EXPECT_FALSE(registry.Contains(&real + 1));
}

TEST(RegistryTest, FindReturnsTheFolioEmbeddedResetNode) {
  FolioRegistry registry(64);
  Folio folio;
  // A stale node, as a detached attachment's list would leave it.
  folio.ext.node = ExtListNode{/*list_id=*/7, /*pos=*/42};
  registry.Insert(&folio);
  ExtListNode* node = registry.Find(&folio);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node, &folio.ext.node);
  EXPECT_FALSE(node->OnList());
  EXPECT_EQ(node->pos, 0);
  EXPECT_EQ(registry.Find(nullptr), nullptr);
  // Find trusts its argument; a garbage pointer is the untrusted checks'
  // job, and neither dereferences it.
  Folio* garbage = reinterpret_cast<Folio*>(0x123);
  EXPECT_FALSE(registry.Contains(garbage));
  MemCgroup cg(/*id=*/1, "registry", /*limit_pages=*/64);
  Ops ops;
  ops.name = "validate";
  CacheExtPolicy policy(std::move(ops), &cg, CpuCostModel{});
  EXPECT_FALSE(policy.ValidateCandidate(garbage));
}

TEST(RegistryTest, OwnerTagIsPerRegistryAndNeverReused) {
  Folio folio;
  auto first = std::make_unique<FolioRegistry>(64);
  const uint64_t first_id = first->id();
  ASSERT_TRUE(first->Insert(&folio));
  EXPECT_TRUE(first->Owns(&folio));
  EXPECT_EQ(folio.ext.owner, first_id);
  // Dropped without removing the folio, as at detach: the next registry
  // (possibly at the same address) must not recognise the stale tag.
  first.reset();
  auto second = std::make_unique<FolioRegistry>(64);
  EXPECT_NE(second->id(), first_id);
  EXPECT_NE(second->id(), 0u);
  EXPECT_FALSE(second->Owns(&folio));
  EXPECT_EQ(second->Find(&folio), nullptr);
  EXPECT_FALSE(second->Contains(&folio));
  EXPECT_FALSE(second->Remove(&folio));
  ASSERT_TRUE(second->Insert(&folio));
  EXPECT_TRUE(second->Owns(&folio));
  EXPECT_TRUE(second->Contains(&folio));
  EXPECT_TRUE(second->Remove(&folio));
  EXPECT_EQ(folio.ext.owner, 0u);
}

TEST(RegistryTest, InsertRemoveMakeNoHeapAllocation) {
  FolioRegistry registry(16);  // small: chains of several folios
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 256; ++i) {
    folios.push_back(std::make_unique<Folio>());
  }
  const uint64_t before = g_heap_allocations.load();
  for (int round = 0; round < 3; ++round) {
    for (auto& folio : folios) {
      ASSERT_TRUE(registry.Insert(folio.get()));
    }
    ASSERT_EQ(registry.Size(), folios.size());
    // Remove in an order unrelated to the chain order, so unlinks hit the
    // middle of chains too.
    for (size_t i = 0; i < folios.size(); ++i) {
      ASSERT_TRUE(registry.Remove(folios[(i * 97) % folios.size()].get()));
    }
  }
  EXPECT_EQ(g_heap_allocations.load(), before);
  EXPECT_EQ(registry.Size(), 0u);
}

TEST(RegistryTest, SingleBucketDegenerateCase) {
  FolioRegistry registry(1);  // all folios collide into one bucket
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 100; ++i) {
    folios.push_back(std::make_unique<Folio>());
    EXPECT_TRUE(registry.Insert(folios.back().get()));
  }
  EXPECT_EQ(registry.Size(), 100u);
  for (auto& folio : folios) {
    EXPECT_TRUE(registry.Contains(folio.get()));
    EXPECT_TRUE(registry.Remove(folio.get()));
  }
  EXPECT_EQ(registry.Size(), 0u);
}

TEST(RegistryTest, ZeroBucketRequestClampedToOne) {
  FolioRegistry registry(0);
  EXPECT_EQ(registry.nr_buckets(), 1u);
  Folio folio;
  EXPECT_TRUE(registry.Insert(&folio));
  EXPECT_TRUE(registry.Contains(&folio));
}

TEST(RegistryTest, MemoryAccountingMatchesPaper) {
  // §6.3.1: 16 bytes per bucket, 32 more per filled entry.
  FolioRegistry registry(1000);
  EXPECT_EQ(registry.MemoryBytes(), 16000u);
  std::vector<std::unique_ptr<Folio>> folios;
  for (int i = 0; i < 10; ++i) {
    folios.push_back(std::make_unique<Folio>());
    registry.Insert(folios.back().get());
  }
  EXPECT_EQ(registry.MemoryBytes(), 16000u + 10 * 32);
  // Worst-case overhead vs cgroup memory: buckets = pages -> 16/4096 = 0.4%,
  // full registry 48/4096 ~= 1.2%.
  const double empty_overhead = 16.0 / 4096.0;
  EXPECT_NEAR(empty_overhead, 0.004, 0.0005);
}

TEST(RegistryTest, ConcurrentInsertRemoveContains) {
  FolioRegistry registry(256);
  constexpr int kThreads = 4;
  constexpr int kFoliosPerThread = 2000;
  std::vector<std::vector<std::unique_ptr<Folio>>> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kFoliosPerThread; ++i) {
      per_thread[t].push_back(std::make_unique<Folio>());
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &per_thread, t] {
      for (int round = 0; round < 3; ++round) {
        for (auto& folio : per_thread[t]) {
          ASSERT_TRUE(registry.Insert(folio.get()));
        }
        for (auto& folio : per_thread[t]) {
          ASSERT_TRUE(registry.Contains(folio.get()));
        }
        for (auto& folio : per_thread[t]) {
          ASSERT_TRUE(registry.Remove(folio.get()));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(registry.Size(), 0u);
}

}  // namespace
}  // namespace cache_ext
