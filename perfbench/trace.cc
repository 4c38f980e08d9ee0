#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>

#include "src/cache_ext/framework.h"
#include "src/cache_ext/loader.h"
#include "src/policies/policy_factory.h"

namespace perfbench {

using cache_ext::AdmissionCtx;
using cache_ext::AdmitOrderCtx;
using cache_ext::CacheExtApi;
using cache_ext::EvictionCtx;
using cache_ext::Folio;
using cache_ext::MemCgroup;
using cache_ext::Ops;
using cache_ext::PrefetchCtx;
using cache_ext::ReadaheadCtx;
using cache_ext::ReclaimPolicy;
using cache_ext::Status;
using cache_ext::WritebackCtx;

namespace {

thread_local ThreadTrace* t_current = nullptr;
thread_local uint64_t t_added_accessed = 0;

template <typename Signature>
void WrapHook(std::function<Signature>& hook, SpanName name) {
  if (!hook) {
    return;
  }
  hook = [inner = std::move(hook), name](auto&&... args) {
    ScopedSpan span(name);
    return inner(std::forward<decltype(args)>(args)...);
  };
}

// Forwards every ReclaimPolicy method to the cache_ext adapter, spanning
// the five whose cost the benchmark attributes: folio added / accessed /
// removed, evict and candidate validation. The other hooks (admission,
// readahead, order, writeback) return at once for a policy without those
// programs; at three or more calls per op, a ~90 ns span each would cost
// far more than the ~5 ns calls it measures, so their time stays in the
// caller's self time. Health, detach and counter queries are forwarded
// untimed, so the page cache's validation and watchdog see what the
// adapter reports.
class TracedPolicy final : public ReclaimPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<ReclaimPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void FolioAdded(Folio* folio) override {
    ScopedSpan span(kExtAdded);
    inner_->FolioAdded(folio);
  }
  void FolioAccessed(Folio* folio) override {
    ScopedSpan span(kExtAccessed);
    inner_->FolioAccessed(folio);
  }
  void FolioRemoved(Folio* folio) override {
    ScopedSpan span(kExtRemoved);
    inner_->FolioRemoved(folio);
  }
  void EvictFolios(EvictionCtx* ctx, MemCgroup* memcg) override {
    ScopedSpan span(kExtEvict);
    inner_->EvictFolios(ctx, memcg);
  }
  bool ValidateCandidate(Folio* folio) override {
    ScopedSpan span(kExtValidate);
    return inner_->ValidateCandidate(folio);
  }
  bool AdmitFolio(const AdmissionCtx& ctx) override {
    return inner_->AdmitFolio(ctx);
  }
  void FolioRefaulted(Folio* folio, uint32_t tier) override {
    inner_->FolioRefaulted(folio, tier);
  }
  int64_t RequestPrefetch(const PrefetchCtx& ctx) override {
    return inner_->RequestPrefetch(ctx);
  }
  int64_t RequestReadahead(const ReadaheadCtx& ctx) override {
    return inner_->RequestReadahead(ctx);
  }
  uint32_t AdmitOrder(const AdmitOrderCtx& ctx) override {
    return inner_->AdmitOrder(ctx);
  }
  bool ShouldWriteback(const WritebackCtx& ctx) override {
    return inner_->ShouldWriteback(ctx);
  }
  int64_t WritebackOrder(const WritebackCtx& ctx) override {
    return inner_->WritebackOrder(ctx);
  }
  uint32_t EvictionTier(const Folio* folio) const override {
    return inner_->EvictionTier(folio);
  }
  cache_ext::PolicyHookHealth HookHealth() const override {
    return inner_->HookHealth();
  }
  bool WantsDetach() const override { return inner_->WantsDetach(); }
  cache_ext::PolicyRuntimeCounters RuntimeCounters() const override {
    return inner_->RuntimeCounters();
  }
  uint64_t PerEventCostNs() const override { return inner_->PerEventCostNs(); }

 private:
  std::unique_ptr<ReclaimPolicy> inner_;
};

int64_t Median(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view SpanNameString(SpanName name) {
  switch (name) {
    case kPagecacheRead:   return "pagecache.read";
    case kLsmGet:          return "lsm.get";
    case kLsmPut:          return "lsm.put";
    case kExtAdded:        return "cache_ext.added";
    case kExtAccessed:     return "cache_ext.accessed";
    case kExtRemoved:      return "cache_ext.removed";
    case kExtEvict:        return "cache_ext.evict";
    case kExtValidate:     return "cache_ext.validate";
    case kPolicyAdded:     return "policy.added";
    case kPolicyAccessed:  return "policy.accessed";
    case kPolicyRemoved:   return "policy.removed";
    case kPolicyEvict:     return "policy.evict";
    case kPolicyOther:     return "policy.other";
    case kNumSpanNames:    break;
  }
  return "?";
}

void LayerTotals::Add(const LayerTotals& other) {
  for (size_t i = 0; i < kNumSpanNames; ++i) {
    calls[i] += other.calls[i];
    self_ns[i] += other.self_ns[i];
  }
  roots += other.roots;
  root_ns += other.root_ns;
  negative_self += other.negative_self;
}

std::vector<int64_t> SelfTimes(std::span<const Span> spans,
                               const TimerCost& cost) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns - cost.in_span_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[spans[i].parent] -= spans[i].end_ns - spans[i].start_ns +
                               cost.per_span_ns - cost.in_span_ns;
    }
  }
  return self;
}

void FoldSpans(std::span<const Span> spans, const TimerCost& cost,
               LayerTotals* totals) {
  const std::vector<int64_t> self = SelfTimes(spans, cost);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    totals->calls[s.name] += 1;
    totals->self_ns[s.name] += self[i];
    totals->negative_self += self[i] < 0 ? 1 : 0;
    if (s.parent < 0) {
      totals->roots += 1;
      totals->root_ns += s.end_ns - s.start_ns;
    }
  }
}

ThreadTrace::ThreadTrace(TimerCost cost, size_t keep_spans)
    : cost_(cost), keep_spans_(keep_spans) {
  spans_.reserve(kFoldSpans + 1024);
  open_.reserve(64);
}

ThreadTrace* ThreadTrace::Current() { return t_current; }
void ThreadTrace::SetCurrent(ThreadTrace* trace) { t_current = trace; }

void ThreadTrace::Fold() {
  FoldSpans(spans_, cost_, &totals_);
  if (kept_.size() + spans_.size() <= keep_spans_) {
    const auto base = static_cast<int32_t>(kept_.size());
    for (Span s : spans_) {
      if (s.parent >= 0) {
        s.parent += base;
      }
      kept_.push_back(s);
    }
  }
  spans_.clear();
}

TimerCost CalibrateTimer() {
  constexpr int kRounds = 31;
  constexpr int kIters = 4096;
  ThreadTrace scratch(TimerCost{}, 0);
  ThreadTrace* saved = ThreadTrace::Current();
  ThreadTrace::SetCurrent(&scratch);
  std::vector<int64_t> pair;
  std::vector<int64_t> in_span;
  std::vector<int64_t> per_span;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t pair_start = NowNs();
    for (int i = 0; i < kIters; ++i) {
      const int64_t t0 = NowNs();
      const int64_t t1 = NowNs();
      asm volatile("" : : "r"(t0), "r"(t1));
    }
    pair.push_back((NowNs() - pair_start) / kIters);
    int64_t sum = 0;
    for (int i = 0; i < kIters; ++i) {
      const int64_t t0 = NowNs();
      sum += NowNs() - t0;
    }
    in_span.push_back(sum / kIters);
    const int64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      ScopedSpan span(kPolicyOther);
    }
    per_span.push_back((NowNs() - t0) / kIters);
    scratch.Fold();
  }
  ThreadTrace::SetCurrent(saved);
  return TimerCost{Median(in_span), Median(per_span), Median(pair)};
}

Ops TraceOps(Ops ops, std::shared_ptr<EvictCounts> counts) {
  WrapHook(ops.policy_init, kPolicyOther);
  WrapHook(ops.folio_added, kPolicyAdded);
  WrapHook(ops.folio_accessed, kPolicyAccessed);
  WrapHook(ops.folio_removed, kPolicyRemoved);
  WrapHook(ops.admit_folio, kPolicyOther);
  WrapHook(ops.folio_refaulted, kPolicyOther);
  WrapHook(ops.request_prefetch, kPolicyOther);
  WrapHook(ops.readahead, kPolicyOther);
  WrapHook(ops.admit_order, kPolicyOther);
  WrapHook(ops.should_writeback, kPolicyOther);
  WrapHook(ops.writeback_order, kPolicyOther);
  if (ops.evict_folios) {
    ops.evict_folios = [inner = std::move(ops.evict_folios),
                        counts = std::move(counts)](
                           CacheExtApi& api, EvictionCtx* ctx, MemCgroup* cg) {
      const uint64_t before = ctx->nr_candidates_proposed;
      {
        ScopedSpan span(kPolicyEvict);
        inner(api, ctx, cg);
      }
      if (ThreadTrace::Current() != nullptr) {
        counts->requested.fetch_add(ctx->nr_candidates_requested,
                                    std::memory_order_relaxed);
        counts->proposed.fetch_add(ctx->nr_candidates_proposed - before,
                                   std::memory_order_relaxed);
      }
    };
  }
  return ops;
}

Status AttachTracedPolicy(cache_ext::PageCache& cache, MemCgroup* cg,
                          std::string_view policy,
                          std::shared_ptr<EvictCounts> counts) {
  cache_ext::policies::PolicyParams params;
  params.capacity_pages = cg->limit_pages();
  auto bundle = cache_ext::policies::MakePolicy(policy, params);
  CACHE_EXT_RETURN_IF_ERROR(bundle.status());
  Ops ops = TraceOps(std::move(bundle->ops), std::move(counts));
  const Status verdict = cache_ext::CacheExtLoader::Verify(ops);
  if (!verdict.ok()) {
    cache.RecordLoadRejection(cg);
    return verdict;
  }
  auto adapter = std::make_unique<cache_ext::CacheExtPolicy>(
      std::move(ops), cg, cache.options().costs);
  CACHE_EXT_RETURN_IF_ERROR(adapter->Init());
  return cache.AttachExtPolicy(
      cg, std::make_unique<TracedPolicy>(std::move(adapter)));
}

void EventCounter::OnFolioAdded(cache_ext::Lane&, const Folio&) {
  ++t_added_accessed;
}
void EventCounter::OnFolioAccessed(cache_ext::Lane&, const Folio&) {
  ++t_added_accessed;
}
void EventCounter::OnFolioEvicted(cache_ext::Lane&, const Folio&) {}

uint64_t EventCounter::ThreadAddedAccessed() { return t_added_accessed; }

bool SelfTestSpans() {
  bool ok = true;
  auto expect = [&ok](const char* what, int64_t got, int64_t want) {
    if (got != want) {
      std::fprintf(stderr, "span self-test: %s = %lld, want %lld\n", what,
                   static_cast<long long>(got), static_cast<long long>(want));
      ok = false;
    }
  };
  // Op 1:  get [0,1000]
  //          evict [100,400]      > policy.evict [150,250]
  //          removed [500,900]    > policy.removed [600,610]
  //                               > validate [700,800]
  // Op 2:  get [2000,2050]
  const std::vector<Span> spans = {
      {0, 1000, 1, -1, kLsmGet},       {100, 400, 1, 0, kExtEvict},
      {150, 250, 1, 1, kPolicyEvict},  {500, 900, 1, 0, kExtRemoved},
      {600, 610, 1, 3, kPolicyRemoved}, {700, 800, 1, 3, kExtValidate},
      {2000, 2050, 2, -1, kLsmGet},
  };
  const std::vector<int64_t> exact = SelfTimes(spans, TimerCost{0, 0});
  const std::vector<int64_t> want_exact = {300, 200, 100, 290, 10, 100, 50};
  // in_span 3, per_span 10: each span loses 3 of its own, and each child
  // costs its parent its duration plus 7 ns outside its own interval.
  const std::vector<int64_t> charged = SelfTimes(spans, TimerCost{3, 10});
  const std::vector<int64_t> want_charged = {283, 190, 97, 273, 7, 97, 47};
  for (size_t i = 0; i < spans.size(); ++i) {
    expect("self (no timer cost)", exact[i], want_exact[i]);
    expect("self (timer cost)", charged[i], want_charged[i]);
  }
  LayerTotals totals;
  FoldSpans(spans, TimerCost{3, 10}, &totals);
  expect("roots", static_cast<int64_t>(totals.roots), 2);
  expect("root_ns", totals.root_ns, 1050);
  expect("lsm.get calls", static_cast<int64_t>(totals.calls[kLsmGet]), 2);
  expect("lsm.get self", totals.self_ns[kLsmGet], 283 + 47);
  expect("negative self", static_cast<int64_t>(totals.negative_self), 0);
  // A timer cost larger than the 10 ns policy.removed span drives its self
  // time, and only its, below 0.
  LayerTotals overcharged;
  FoldSpans(spans, TimerCost{12, 20}, &overcharged);
  expect("negative self (overcharged)",
         static_cast<int64_t>(overcharged.negative_self), 1);
  int64_t sum = 0;
  for (int64_t v : totals.self_ns) {
    sum += v;
  }
  // Self times plus the instrumentation add up to the root spans exactly:
  // 7 spans x 3 ns inside their own intervals, 5 children x 7 ns outside.
  expect("sum of self", sum, 1050 - 7 * 3 - 5 * 7);

  // The same identity on spans recorded with the real clock.
  const TimerCost cost{2, 9};
  ThreadTrace trace(cost, 1 << 10);
  ThreadTrace::SetCurrent(&trace);
  for (int op = 0; op < 100; ++op) {
    trace.BeginOp();
    ScopedSpan root(kPagecacheRead);
    for (int child = 0; child < op % 4; ++child) {
      ScopedSpan ext(kExtAccessed);
      ScopedSpan prog(kPolicyAccessed);
    }
  }
  ThreadTrace::SetCurrent(nullptr);
  trace.Fold();
  const LayerTotals& recorded = trace.totals();
  uint64_t n = 0;
  int64_t recorded_sum = 0;
  for (size_t i = 0; i < kNumSpanNames; ++i) {
    n += recorded.calls[i];
    recorded_sum += recorded.self_ns[i];
  }
  expect("recorded spans", static_cast<int64_t>(n), 100 + 2 * 150);
  expect("recorded kept", static_cast<int64_t>(trace.kept().size()), 400);
  expect("recorded sum of self", recorded_sum,
         recorded.root_ns - static_cast<int64_t>(n) * cost.in_span_ns -
             static_cast<int64_t>(n - recorded.roots) *
                 (cost.per_span_ns - cost.in_span_ns));
  return ok;
}

}  // namespace perfbench
