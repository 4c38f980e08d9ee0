// Unit tests for src/util: Status/Expected, Rng, Histogram, IntrusiveList.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/intrusive_list.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace cache_ext {
namespace {

// --- Status / Expected -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EveryErrorCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 42);
  EXPECT_TRUE(e.status().ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e(InvalidArgument("bad"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(ExpectedTest, CopyAndMoveSemantics) {
  Expected<std::string> a(std::string("hello"));
  Expected<std::string> b = a;  // copy
  EXPECT_EQ(*b, "hello");
  Expected<std::string> c = std::move(a);
  EXPECT_EQ(*c, "hello");
  Expected<std::string> err(NotFound("x"));
  b = err;  // copy-assign error over value
  EXPECT_FALSE(b.ok());
  c = Expected<std::string>(std::string("again"));
  EXPECT_EQ(*c, "again");
}

TEST(ExpectedTest, ArrowOperator) {
  Expected<std::string> e(std::string("abc"));
  EXPECT_EQ(e->size(), 3u);
}

Status FailIfNegative(int x) {
  if (x < 0) {
    return InvalidArgument("negative");
  }
  return OkStatus();
}

Status Chain(int x) {
  CACHE_EXT_RETURN_IF_ERROR(FailIfNegative(x));
  return OkStatus();
}

TEST(ExpectedTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_FALSE(Chain(-1).ok());
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextU64Below(17), 17u);
    const uint64_t v = rng.NextU64InRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformityRoughly) {
  Rng rng(13);
  std::vector<int> buckets(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++buckets[rng.NextU64Below(10)];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, kSamples / 10, kSamples / 100);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, Mix64IsStable) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P99(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Mean(), 1000.0);
  // Bucketing precision: within ~3.2%.
  EXPECT_NEAR(static_cast<double>(h.P50()), 1000.0, 1000.0 * 0.04);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (uint64_t v = 0; v < 32; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_EQ(h.Percentile(1.0), 31u);
}

TEST(HistogramTest, PercentileOrderingHolds) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    h.Record(rng.NextU64Below(1000000));
  }
  EXPECT_LE(h.P50(), h.P90());
  EXPECT_LE(h.P90(), h.P99());
  EXPECT_LE(h.P99(), h.P999());
  EXPECT_LE(h.P999(), h.max());
}

TEST(HistogramTest, UniformPercentilesApproximatelyCorrect) {
  Histogram h;
  for (uint64_t v = 1; v <= 100000; ++v) {
    h.Record(v);
  }
  EXPECT_NEAR(static_cast<double>(h.P50()), 50000.0, 50000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99000.0, 99000.0 * 0.05);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, ResetClearsState) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ConcurrentRecordingIsLossless) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(rng.NextU64Below(100000) + 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, RecordManyEquivalentToLoop) {
  Histogram a;
  Histogram b;
  a.RecordMany(500, 10);
  for (int i = 0; i < 10; ++i) {
    b.Record(500);
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.P50(), b.P50());
}

// --- IntrusiveList -----------------------------------------------------------

struct Item {
  explicit Item(int v) : value(v) {}
  int value;
  ListNode node;
};

using ItemList = IntrusiveList<Item, &Item::node>;

TEST(IntrusiveListTest, EmptyList) {
  ItemList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.Front(), nullptr);
  EXPECT_EQ(list.Back(), nullptr);
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveListTest, PushPopOrder) {
  ItemList list;
  Item a(1);
  Item b(2);
  Item c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushFront(&c);
  // Order: c a b
  EXPECT_EQ(list.Front()->value, 3);
  EXPECT_EQ(list.Back()->value, 2);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_EQ(list.PopBack()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, RemoveFromMiddle) {
  ItemList list;
  Item a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_FALSE(b.node.IsLinked());
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Next(&a), &c);
}

TEST(IntrusiveListTest, MoveToFrontAndBack) {
  ItemList list;
  Item a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.MoveToFront(&c);
  EXPECT_EQ(list.Front(), &c);
  list.MoveToBack(&c);
  EXPECT_EQ(list.Back(), &c);
  EXPECT_EQ(list.size(), 3u);
}

TEST(IntrusiveListTest, IterationVisitsAllInOrder) {
  ItemList list;
  std::vector<std::unique_ptr<Item>> storage;
  for (int i = 0; i < 10; ++i) {
    storage.push_back(std::make_unique<Item>(i));
    list.PushBack(storage.back().get());
  }
  int expected = 0;
  for (Item& item : list) {
    EXPECT_EQ(item.value, expected++);
  }
  EXPECT_EQ(expected, 10);
}

TEST(IntrusiveListTest, NextPrevNavigation) {
  ItemList list;
  Item a(1), b(2);
  list.PushBack(&a);
  list.PushBack(&b);
  EXPECT_EQ(list.Next(&a), &b);
  EXPECT_EQ(list.Next(&b), nullptr);
  EXPECT_EQ(list.Prev(&b), &a);
  EXPECT_EQ(list.Prev(&a), nullptr);
}

TEST(IntrusiveListTest, SpliceBack) {
  ItemList a_list;
  ItemList b_list;
  Item a(1), b(2), c(3);
  a_list.PushBack(&a);
  b_list.PushBack(&b);
  b_list.PushBack(&c);
  a_list.SpliceBack(&b_list);
  EXPECT_EQ(a_list.size(), 3u);
  EXPECT_TRUE(b_list.empty());
  EXPECT_EQ(a_list.Back(), &c);
  a_list.SpliceBack(&b_list);  // splicing empty is a no-op
  EXPECT_EQ(a_list.size(), 3u);
}

TEST(IntrusiveListTest, UnlinkedNodeState) {
  Item a(1);
  EXPECT_FALSE(a.node.IsLinked());
  ItemList list;
  list.PushBack(&a);
  EXPECT_TRUE(a.node.IsLinked());
  list.Remove(&a);
  EXPECT_FALSE(a.node.IsLinked());
}

}  // namespace
}  // namespace cache_ext
