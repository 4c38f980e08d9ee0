// Span tracing for the benchmark's traced run.
//
// Every span is recorded from the benchmark's side of a call into a layer:
// around PageCache::Read / LsmDb::Get / LsmDb::Put (the op spans), around
// each ReclaimPolicy method of the cache_ext adapter (a forwarding decorator,
// TracedPolicy) and around each Ops hook closure of the policy program. The
// library itself is not instrumented.
//
// Spans are kept per thread in memory. Whenever a thread's buffer holds
// kFoldSpans spans and no span is open, the buffer is folded: each span's
// self time is computed from the recorded spans (see SelfTimes) and added to
// per-name totals. The first spans of each thread are also kept verbatim so
// they can be written out when the benchmark ends.
//
// Timer cost. Two calibrated constants describe what the instrumentation
// itself adds (CalibrateTimer; it also reports pair_ns, the cost of one
// timestamp pair):
//   in_span_ns   the part of one span's own timestamp pair that falls inside
//                its [start, end] interval (an empty span's duration);
//   per_span_ns  everything one span adds to its parent's interval: the
//                timestamp pair, the bookkeeping and the thread-local lookup.
// On a VM with a ~45 ns clock read a span costs about 90 ns, the size of an
// lfu hook call, which is why both are subtracted rather than ignored.
// A span's self time is
//   self = duration - in_span_ns - sum over children (duration + per_span_ns
//                                                     - in_span_ns)
// so summing self over a tree gives the root's duration minus the
// instrumentation: root_ns - n_spans * in_span_ns
//                          - (n_spans - 1) * (per_span_ns - in_span_ns).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/cache_ext/ops.h"
#include "src/pagecache/page_cache.h"
#include "src/util/status.h"

namespace perfbench {

int64_t NowNs();

enum SpanName : uint16_t {
  // Op spans: the roots, one per benchmark operation.
  kPagecacheRead,
  kLsmGet,
  kLsmPut,
  // cache_ext adapter methods, timed by the TracedPolicy decorator.
  kExtAdded,
  kExtAccessed,
  kExtRemoved,
  kExtEvict,
  kExtValidate,
  // Policy program hooks, timed by the Ops closure wrappers.
  kPolicyAdded,
  kPolicyAccessed,
  kPolicyRemoved,
  kPolicyEvict,
  kPolicyOther,
  kNumSpanNames,
};

// Metric-style name, e.g. "cache_ext.evict".
std::string_view SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op_id = 0;
  int32_t parent = -1;  // index in the same buffer; -1 for a root
  uint16_t name = 0;
};

struct TimerCost {
  int64_t in_span_ns = 0;
  int64_t per_span_ns = 0;
  int64_t pair_ns = 0;  // two back-to-back clock reads, timed from outside
};

// Per-name sums over folded spans.
struct LayerTotals {
  std::array<uint64_t, kNumSpanNames> calls{};
  std::array<int64_t, kNumSpanNames> self_ns{};
  uint64_t roots = 0;
  int64_t root_ns = 0;
  uint64_t negative_self = 0;  // spans whose self time came out below 0

  void Add(const LayerTotals& other);
};

// Self time of each span (see the file comment). `spans` must hold whole
// trees with every parent before its children.
std::vector<int64_t> SelfTimes(std::span<const Span> spans,
                               const TimerCost& cost);

// Adds the spans' counts and self times, the roots' durations and the
// number of negative self times to `totals`.
void FoldSpans(std::span<const Span> spans, const TimerCost& cost,
               LayerTotals* totals);

class ThreadTrace {
 public:
  static constexpr size_t kFoldSpans = 1 << 16;

  ThreadTrace(TimerCost cost, size_t keep_spans);
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  // The trace spans on this thread go to; null when tracing is off.
  static ThreadTrace* Current();
  static void SetCurrent(ThreadTrace* trace);

  void BeginOp() { ++op_id_; }
  void Begin(SpanName name) {
    spans_.push_back(Span{0, 0, op_id_,
                          open_.empty() ? -1 : open_.back(), name});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    spans_.back().start_ns = NowNs();
  }
  void End() {
    const int64_t end = NowNs();
    spans_[open_.back()].end_ns = end;
    open_.pop_back();
    if (open_.empty() && spans_.size() >= kFoldSpans) {
      Fold();
    }
  }

  // Folds whatever is buffered; call with no span open.
  void Fold();

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  TimerCost cost_;
  size_t keep_spans_;
  uint64_t op_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<Span> kept_;
  LayerTotals totals_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : trace_(ThreadTrace::Current()) {
    if (trace_ != nullptr) {
      trace_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

// Measures the timer constants on this thread (medians of many rounds).
TimerCost CalibrateTimer();

// Eviction-request counts seen by the evict_folios wrapper.
struct EvictCounts {
  std::atomic<uint64_t> requested{0};
  std::atomic<uint64_t> proposed{0};
};

// Wraps every hook closure of `ops` in a span named after its hook; the
// evict_folios wrapper also counts requested and proposed candidates.
cache_ext::Ops TraceOps(cache_ext::Ops ops,
                        std::shared_ptr<EvictCounts> counts);

// The traced attach path: builds `policy` with MakePolicy (sized to the
// cgroup like harness::Env::AttachPolicy), wraps its hooks with TraceOps,
// verifies it with CacheExtLoader::Verify (a rejection is recorded on the
// cgroup and returned), runs policy_init, and installs the cache_ext
// adapter behind a forwarding decorator that spans each of its methods.
cache_ext::Status AttachTracedPolicy(cache_ext::PageCache& cache,
                                     cache_ext::MemCgroup* cg,
                                     std::string_view policy,
                                     std::shared_ptr<EvictCounts> counts);

// Counts page-cache tracer events per thread.
class EventCounter : public cache_ext::PageCacheTracer {
 public:
  void OnFolioAdded(cache_ext::Lane& lane,
                    const cache_ext::Folio& folio) override;
  void OnFolioAccessed(cache_ext::Lane& lane,
                       const cache_ext::Folio& folio) override;
  void OnFolioEvicted(cache_ext::Lane& lane,
                      const cache_ext::Folio& folio) override;

  // Added + accessed events delivered on the calling thread so far.
  static uint64_t ThreadAddedAccessed();
};

// Runs the self-time arithmetic on a hand-built span tree and compares it
// with the expected values. Returns true when every value matches exactly.
bool SelfTestSpans();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
