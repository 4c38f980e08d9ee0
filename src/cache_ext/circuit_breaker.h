// Per-hook circuit breakers for loaded policies (§4.4 hardening).
//
// The paper's watchdog is all-or-nothing: enough invalid candidates and the
// whole policy is unloaded. Real policies usually break in ONE program — an
// admission filter that aborts, a prefetch hook that exhausts its budget —
// while the rest keeps earning its hit rate. The breaker therefore tracks a
// sliding-window violation rate per hook (evict_folios, admit_folio, ...): a
// hook whose recent rate crosses the trip threshold is degraded to the
// default kernel behaviour *alone*; escalation to a full watchdog detach
// happens only when several hooks trip or a single hook's violations keep
// accumulating past a hard cap. Escalation is the only thing that latches
// the page cache's watchdog.
//
// The thresholds are constants of the kernel side, like the kernel's eBPF
// limits: a policy cannot choose its own containment.
//
// The sliding window is an exponential-decay window: per-hook counters are
// halved every kWindow invocations, so old violations age out and a burst
// of failures trips quickly while a long-healthy hook shrugs off a stray
// abort.
//
// The success path counts instead of locking. While a hook's window holds
// no violation, a success can neither trip nor escalate, so Record() only
// bumps the hook's pending count (one relaxed CAS). The count is folded
// into the window and total counters, under the mutex, before the next
// violation on that hook and before every Health() read. Folding
// reproduces the sequential halving exactly, so any outcome sequence gives
// the same trips, escalation and Health() as recording every success under
// the lock.

#ifndef SRC_CACHE_EXT_CIRCUIT_BREAKER_H_
#define SRC_CACHE_EXT_CIRCUIT_BREAKER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/pagecache/eviction.h"

namespace cache_ext {

class HookCircuitBreaker {
 public:
  // Invocations per decay window (per hook).
  static constexpr uint64_t kWindow = 64;
  // A hook never trips before seeing this many invocations in its window.
  // It trips once at least half of them are violations.
  static constexpr uint64_t kMinSamples = 16;
  // Tripped hooks that escalate to a full detach.
  static constexpr uint32_t kHooksToDetach = 2;
  // Lifetime violations on any single hook that escalate even without a
  // second trip: a sporadic offender whose rate never trips the hook is
  // still detached once it has done this much damage.
  static constexpr uint64_t kHardViolationLimit = 128;

  // Record one hook invocation outcome. Returns true when this record
  // tripped the hook (transition only, not for already-tripped hooks).
  bool Record(Hook hook, bool violation) {
    if (!violation) {
      std::atomic<uint64_t>& pending = pending_[static_cast<size_t>(hook)];
      uint64_t cur = pending.load(std::memory_order_relaxed);
      while ((cur & kLocked) == 0) {
        if (pending.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_relaxed)) {
          return false;
        }
      }
    }
    return RecordLocked(hook, violation);
  }

  // Degraded = tripped; stays tripped for the life of the attachment (a
  // fresh attach after quarantine starts with a clean breaker).
  bool Degraded(Hook hook) const;

  uint32_t degraded_mask() const {
    return degraded_mask_.load(std::memory_order_relaxed);
  }
  // Escalation latch: kHooksToDetach trips, or kHardViolationLimit
  // violations on one hook.
  bool escalated() const {
    return escalated_.load(std::memory_order_relaxed);
  }

  PolicyHookHealth Health() const;

 private:
  struct HookState {
    uint64_t window_invocations = 0;
    uint64_t window_violations = 0;
    uint64_t total_invocations = 0;
    uint64_t total_violations = 0;
    uint64_t trips = 0;
    bool tripped = false;
  };

  // Pending-count flag: the hook's window holds a violation, so successes
  // take the mutex.
  static constexpr uint64_t kLocked = 1ull << 63;

  bool RecordLocked(Hook hook, bool violation);
  // Moves hook `index`'s pending successes into its counters. mu_ held.
  void FoldPending(size_t index) const;

  mutable std::mutex mu_;
  mutable std::array<HookState, kNumHooks> hooks_;
  // Per hook: successes not yet folded into hooks_, plus kLocked.
  mutable std::array<std::atomic<uint64_t>, kNumHooks> pending_{};
  // Mirrors of state readable without the lock, for the dispatch fast path.
  std::atomic<uint32_t> degraded_mask_{0};
  std::atomic<bool> escalated_{false};
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_CIRCUIT_BREAKER_H_
