#include "src/cache_ext/circuit_breaker.h"

#include "src/util/logging.h"

namespace cache_ext {

HookCircuitBreaker::HookCircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options),
      // On a violation-free window a success trips only if
      // 0 >= trip_rate * invocations, i.e. trip_rate <= 0, and escalates
      // only on the first record when either escalation bound is 0.
      count_only_successes_(!(options.trip_rate <= 0.0) &&
                            options.hooks_to_detach > 0 &&
                            options.hard_violation_limit > 0) {
  CHECK_GT(options_.window, 0u);
  for (std::atomic<uint64_t>& pending : pending_) {
    pending.store(count_only_successes_ ? 0 : kLocked,
                  std::memory_order_relaxed);
  }
}

void HookCircuitBreaker::FoldPending(uint32_t index) const {
  uint64_t n =
      pending_[index].fetch_and(kLocked, std::memory_order_relaxed) & ~kLocked;
  if (n == 0) {
    return;
  }
  // n successes, each of which incremented both invocation counters and
  // halved the window counters on reaching `window`. The window held no
  // violation, so only the invocation count moves, and it stays below
  // `window` between records.
  HookState& st = hooks_[index];
  DCHECK(st.window_violations == 0);
  st.total_invocations += n;
  const uint64_t to_halving = options_.window - st.window_invocations;
  if (n < to_halving) {
    st.window_invocations += n;
    return;
  }
  n -= to_halving;
  const uint64_t halved = options_.window / 2;
  st.window_invocations = halved + n % (options_.window - halved);
}

bool HookCircuitBreaker::RecordLocked(PolicyHook hook, bool violation) {
  const auto index = static_cast<uint32_t>(hook);
  DCHECK(index < kNumPolicyHooks);
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
  if (!st.tripped && st.window_invocations >= options_.min_samples &&
      static_cast<double>(st.window_violations) >=
          options_.trip_rate * static_cast<double>(st.window_invocations)) {
    st.tripped = true;
    ++st.trips;
    newly_tripped = true;
    degraded_mask_.fetch_or(PolicyHookBit(hook), std::memory_order_relaxed);
  }

  // Exponential decay: halve the window counters so old outcomes age out.
  if (st.window_invocations >= options_.window) {
    st.window_invocations /= 2;
    st.window_violations /= 2;
  }

  if (!escalated_.load(std::memory_order_relaxed)) {
    uint32_t tripped_hooks = 0;
    for (const HookState& h : hooks_) {
      tripped_hooks += h.tripped ? 1 : 0;
    }
    if (tripped_hooks >= options_.hooks_to_detach ||
        st.total_violations >= options_.hard_violation_limit) {
      escalated_.store(true, std::memory_order_relaxed);
    }
  }
  if (count_only_successes_ && st.window_violations == 0) {
    pending_[index].store(0, std::memory_order_relaxed);
  }
  return newly_tripped;
}

bool HookCircuitBreaker::Degraded(PolicyHook hook) const {
  return (degraded_mask_.load(std::memory_order_relaxed) &
          PolicyHookBit(hook)) != 0;
}

PolicyHookHealth HookCircuitBreaker::Health() const {
  std::lock_guard<std::mutex> lock(mu_);
  PolicyHookHealth health;
  health.degraded_mask = degraded_mask_.load(std::memory_order_relaxed);
  health.escalate_detach = escalated_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < kNumPolicyHooks; ++i) {
    FoldPending(i);
    health.trips[i] = hooks_[i].trips;
    health.violations[i] = hooks_[i].total_violations;
    health.invocations[i] = hooks_[i].total_invocations;
  }
  return health;
}

}  // namespace cache_ext
