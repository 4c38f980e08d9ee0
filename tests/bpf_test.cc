// Unit tests for the mini-eBPF runtime: maps, LRU hash, ring buffer,
// spinlock, run-context budgets.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/bpf/lru_hash_map.h"
#include "src/bpf/map.h"
#include "src/bpf/prog.h"
#include "src/bpf/ringbuf.h"
#include "src/bpf/spinlock.h"

namespace cache_ext::bpf {
namespace {

// --- HashMap -----------------------------------------------------------------

TEST(BpfHashMapTest, UpdateLookupDelete) {
  HashMap<int, int> map(8);
  EXPECT_TRUE(map.Update(1, 100));
  ASSERT_NE(map.Lookup(1), nullptr);
  EXPECT_EQ(*map.Lookup(1), 100);
  EXPECT_TRUE(map.Delete(1));
  EXPECT_EQ(map.Lookup(1), nullptr);
  EXPECT_FALSE(map.Delete(1));
}

TEST(BpfHashMapTest, FullMapRejectsInsert) {
  HashMap<int, int> map(2);
  EXPECT_TRUE(map.Update(1, 1));
  EXPECT_TRUE(map.Update(2, 2));
  // -E2BIG: eBPF policies must handle failed inserts.
  EXPECT_FALSE(map.Update(3, 3));
  // Updating an existing key still works at capacity.
  EXPECT_TRUE(map.Update(1, 10));
  EXPECT_EQ(*map.Lookup(1), 10);
}

TEST(BpfHashMapTest, UpdateFlags) {
  HashMap<int, int> map(8);
  EXPECT_FALSE(map.Update(1, 1, MapUpdateFlags::kExist));  // BPF_EXIST
  EXPECT_TRUE(map.Update(1, 1, MapUpdateFlags::kNoExist));
  EXPECT_FALSE(map.Update(1, 2, MapUpdateFlags::kNoExist));  // BPF_NOEXIST
  EXPECT_TRUE(map.Update(1, 2, MapUpdateFlags::kExist));
  EXPECT_EQ(*map.Lookup(1), 2);
}

TEST(BpfHashMapTest, LookupPointerIsMutable) {
  HashMap<int, uint64_t> map(8);
  map.Update(1, 0);
  uint64_t* v = map.Lookup(1);
  ASSERT_NE(v, nullptr);
  ++*v;  // the __sync_fetch_and_add pattern from Fig. 4
  EXPECT_EQ(*map.Lookup(1), 1u);
}

TEST(BpfHashMapTest, ForEachVisitsAll) {
  HashMap<int, int> map(8);
  for (int i = 0; i < 5; ++i) {
    map.Update(i, i * i);
  }
  int visited = 0;
  map.ForEach([&visited](int key, int& value) {
    EXPECT_EQ(value, key * key);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 5);
}

TEST(BpfHashMapTest, ForEachEarlyStop) {
  HashMap<int, int> map(8);
  for (int i = 0; i < 5; ++i) {
    map.Update(i, i);
  }
  int visited = 0;
  map.ForEach([&visited](int, int&) { return ++visited < 2; });
  EXPECT_EQ(visited, 2);
}

TEST(BpfHashMapTest, ConcurrentMixedOps) {
  HashMap<int, int> map(1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < 10000; ++i) {
        const int key = (t * 10000 + i) % 512;
        map.Update(key, i);
        map.Lookup(key);
        if (i % 7 == 0) {
          map.Delete(key);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_LE(map.Size(), 1024u);
}

// --- LruHashMap --------------------------------------------------------------

TEST(BpfLruHashMapTest, BasicOps) {
  LruHashMap<int, int> map(4);
  map.Update(1, 10);
  int out = 0;
  EXPECT_TRUE(map.Lookup(1, &out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(map.Contains(1));
  EXPECT_TRUE(map.Delete(1));
  EXPECT_FALSE(map.Contains(1));
}

TEST(BpfLruHashMapTest, EvictsLruWhenFull) {
  LruHashMap<int, int> map(3);
  map.Update(1, 1);
  map.Update(2, 2);
  map.Update(3, 3);
  map.Update(4, 4);  // evicts 1 (least recently used)
  EXPECT_FALSE(map.Contains(1));
  EXPECT_TRUE(map.Contains(2));
  EXPECT_TRUE(map.Contains(4));
  EXPECT_EQ(map.Size(), 3u);
}

TEST(BpfLruHashMapTest, LookupRefreshesRecency) {
  LruHashMap<int, int> map(3);
  map.Update(1, 1);
  map.Update(2, 2);
  map.Update(3, 3);
  int out;
  map.Lookup(1, &out);  // 1 becomes MRU; 2 is now LRU
  map.Update(4, 4);
  EXPECT_TRUE(map.Contains(1));
  EXPECT_FALSE(map.Contains(2));
}

TEST(BpfLruHashMapTest, UpdateExistingRefreshes) {
  LruHashMap<int, int> map(2);
  map.Update(1, 1);
  map.Update(2, 2);
  map.Update(1, 10);  // refresh 1; 2 is LRU
  map.Update(3, 3);
  EXPECT_TRUE(map.Contains(1));
  EXPECT_FALSE(map.Contains(2));
  int out;
  EXPECT_TRUE(map.Lookup(1, &out));
  EXPECT_EQ(out, 10);
}

TEST(BpfLruHashMapTest, ClearEmpties) {
  LruHashMap<int, int> map(4);
  map.Update(1, 1);
  map.Clear();
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_FALSE(map.Contains(1));
}

// --- RingBuf -----------------------------------------------------------------

TEST(RingBufTest, ProduceConsumeRoundTrip) {
  RingBuf rb(1024);
  const uint32_t value = 0xDEADBEEF;
  EXPECT_TRUE(rb.OutputValue(value));
  EXPECT_EQ(rb.produced(), 1u);

  uint32_t consumed_value = 0;
  const uint64_t n = rb.Consume([&](std::span<const uint8_t> data) {
    ASSERT_EQ(data.size(), sizeof(uint32_t));
    std::memcpy(&consumed_value, data.data(), sizeof(uint32_t));
  });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(consumed_value, value);
  EXPECT_EQ(rb.BytesPending(), 0u);
}

TEST(RingBufTest, PreservesOrder) {
  RingBuf rb(4096);
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(rb.OutputValue(i));
  }
  uint32_t expected = 0;
  rb.Consume([&](std::span<const uint8_t> data) {
    uint32_t v;
    std::memcpy(&v, data.data(), sizeof(v));
    EXPECT_EQ(v, expected++);
  });
  EXPECT_EQ(expected, 100u);
}

TEST(RingBufTest, DropsWhenFull) {
  RingBuf rb(64);  // tiny: header 8 + padded payload
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (rb.OutputValue(static_cast<uint64_t>(i))) {
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 100);
  EXPECT_EQ(rb.dropped(), static_cast<uint64_t>(100 - accepted));
}

TEST(RingBufTest, WrapAroundKeepsDataIntact) {
  RingBuf rb(128);
  for (int round = 0; round < 50; ++round) {
    const uint64_t value = 0xA5A5A5A5A5A5A5A5ULL ^ round;
    ASSERT_TRUE(rb.OutputValue(value));
    uint64_t got = 0;
    rb.Consume([&](std::span<const uint8_t> data) {
      std::memcpy(&got, data.data(), sizeof(got));
    });
    EXPECT_EQ(got, value);
  }
}

TEST(RingBufTest, ConcurrentProducers) {
  RingBuf rb(1 << 20);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rb] {
      for (int i = 0; i < kPerThread; ++i) {
        rb.OutputValue(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::atomic<uint64_t> consumed{0};
  rb.Consume([&](std::span<const uint8_t>) { ++consumed; });
  EXPECT_EQ(consumed.load() + rb.dropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- SpinLock ----------------------------------------------------------------

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        SpinLockGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(SpinLockTest, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

// --- RunContext --------------------------------------------------------------

TEST(RunContextTest, NoContextMeansUnrestricted) {
  EXPECT_EQ(RunContext::Current(), nullptr);
  EXPECT_TRUE(ChargeHelperCall());
}

TEST(RunContextTest, BudgetEnforced) {
  RunContext ctx(3);
  EXPECT_EQ(RunContext::Current(), &ctx);
  EXPECT_TRUE(ChargeHelperCall());
  EXPECT_TRUE(ChargeHelperCall());
  EXPECT_TRUE(ChargeHelperCall());
  EXPECT_FALSE(ChargeHelperCall());  // budget exhausted
  EXPECT_TRUE(ctx.aborted());
  EXPECT_FALSE(ChargeHelperCall());  // stays aborted
}

TEST(RunContextTest, NestingRestoresParent) {
  RunContext outer(100);
  {
    RunContext inner(1);
    EXPECT_EQ(RunContext::Current(), &inner);
    EXPECT_TRUE(ChargeHelperCall());
    EXPECT_FALSE(ChargeHelperCall());
  }
  EXPECT_EQ(RunContext::Current(), &outer);
  EXPECT_TRUE(ChargeHelperCall());  // outer unaffected by inner abort
  EXPECT_FALSE(outer.aborted());
}

TEST(RunContextTest, CountsCalls) {
  RunContext ctx(10);
  ChargeHelperCall();
  ChargeHelperCall();
  EXPECT_EQ(ctx.helper_calls(), 2u);
}

TEST(RunContextTest, AbortStopsCounting) {
  // After the budget trips, aborted() latches and helper_calls() freezes:
  // every further charge is refused without advancing the counter, so the
  // recorded count is the exact point of first overrun.
  RunContext ctx(2);
  EXPECT_TRUE(ChargeHelperCall());
  EXPECT_TRUE(ChargeHelperCall());
  EXPECT_FALSE(ChargeHelperCall());
  const uint64_t at_abort = ctx.helper_calls();
  EXPECT_TRUE(ctx.aborted());
  EXPECT_FALSE(ChargeHelperCall());
  EXPECT_FALSE(ChargeHelperCall());
  EXPECT_EQ(ctx.helper_calls(), at_abort);
}

TEST(RunContextTest, ZeroBudgetAbortsImmediately) {
  RunContext ctx(0);
  EXPECT_FALSE(ctx.aborted());  // not aborted until a call is attempted
  EXPECT_FALSE(ChargeHelperCall());
  EXPECT_TRUE(ctx.aborted());
}

TEST(RunContextTest, NestedAbortDoesNotPoisonParent) {
  RunContext outer(2);
  EXPECT_TRUE(ChargeHelperCall());  // outer: 1 of 2
  {
    RunContext inner(1);
    EXPECT_TRUE(ChargeHelperCall());
    EXPECT_FALSE(ChargeHelperCall());  // inner aborts
    EXPECT_TRUE(inner.aborted());
  }
  // The inner abort must not leak into the parent's budget or flag.
  EXPECT_EQ(RunContext::Current(), &outer);
  EXPECT_FALSE(outer.aborted());
  EXPECT_EQ(outer.helper_calls(), 1u);
  EXPECT_TRUE(ChargeHelperCall());  // outer: 2 of 2 still available
}

TEST(RunContextTest, UnrestrictedAgainAfterAllContextsExit) {
  {
    RunContext ctx(0);
    EXPECT_FALSE(ChargeHelperCall());
  }
  EXPECT_EQ(RunContext::Current(), nullptr);
  EXPECT_TRUE(ChargeHelperCall());  // no context: unrestricted again
}

}  // namespace
}  // namespace cache_ext::bpf
