#include "src/cache_ext/circuit_breaker.h"

#include "src/util/logging.h"

namespace cache_ext {

void HookCircuitBreaker::FoldPending(size_t index) const {
  uint64_t n =
      pending_[index].fetch_and(kLocked, std::memory_order_relaxed) & ~kLocked;
  if (n == 0) {
    return;
  }
  // n successes, each of which incremented both invocation counters and
  // halved the window counters on reaching kWindow. The window held no
  // violation, so only the invocation count moves, and it stays below
  // kWindow between records.
  HookState& st = hooks_[index];
  DCHECK(st.window_violations == 0);
  st.total_invocations += n;
  const uint64_t to_halving = kWindow - st.window_invocations;
  if (n < to_halving) {
    st.window_invocations += n;
    return;
  }
  n -= to_halving;
  constexpr uint64_t kHalved = kWindow / 2;
  st.window_invocations = kHalved + n % (kWindow - kHalved);
}

bool HookCircuitBreaker::RecordLocked(Hook hook, bool violation) {
  const auto index = static_cast<size_t>(hook);
  DCHECK(index < kNumHooks);
  std::lock_guard<std::mutex> lock(mu_);
  // Close the hook's count-only path while its state moves: a success that
  // lands after this point takes the mutex and is ordered after us.
  pending_[index].fetch_or(kLocked, std::memory_order_relaxed);
  FoldPending(index);
  HookState& st = hooks_[index];
  ++st.window_invocations;
  ++st.total_invocations;
  if (violation) {
    ++st.window_violations;
    ++st.total_violations;
  }

  bool newly_tripped = false;
  if (!st.tripped && st.window_invocations >= kMinSamples &&
      2 * st.window_violations >= st.window_invocations) {
    st.tripped = true;
    ++st.trips;
    newly_tripped = true;
    degraded_mask_.fetch_or(HookBit(hook), std::memory_order_relaxed);
  }

  // Exponential decay: halve the window counters so old outcomes age out.
  if (st.window_invocations >= kWindow) {
    st.window_invocations /= 2;
    st.window_violations /= 2;
  }

  if (!escalated_.load(std::memory_order_relaxed)) {
    uint32_t tripped_hooks = 0;
    for (const HookState& h : hooks_) {
      tripped_hooks += h.tripped ? 1 : 0;
    }
    if (tripped_hooks >= kHooksToDetach ||
        st.total_violations >= kHardViolationLimit) {
      escalated_.store(true, std::memory_order_relaxed);
    }
  }
  if (st.window_violations == 0) {
    pending_[index].store(0, std::memory_order_relaxed);
  }
  return newly_tripped;
}

bool HookCircuitBreaker::Degraded(Hook hook) const {
  return (degraded_mask() & HookBit(hook)) != 0;
}

PolicyHookHealth HookCircuitBreaker::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  PolicyHookHealth health;
  health.degraded_mask = degraded_mask_.load(std::memory_order_relaxed);
  health.escalate_detach = escalated_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumHooks; ++i) {
    FoldPending(i);
    health.trips[i] = hooks_[i].trips;
    health.violations[i] = hooks_[i].total_violations;
    health.invocations[i] = hooks_[i].total_invocations;
  }
  return health;
}

}  // namespace cache_ext
