#include "src/reclaim/reclaimer.h"

#include <algorithm>

#include "src/fault/fault_injector.h"

namespace cache_ext::reclaim {

const char* LaneHealthName(LaneHealth health) {
  switch (health) {
    case LaneHealth::kIdle:
      return "idle";
    case LaneHealth::kRunning:
      return "running";
    case LaneHealth::kStalled:
      return "stalled";
    case LaneHealth::kDead:
      return "dead";
  }
  return "?";
}

bool CgroupReclaimControl::ShouldWake(uint64_t charged_pages,
                                      const Watermarks& wm) {
  if (wm.TargetReached(charged_pages)) {
    NoteTargetReached();
    return false;
  }
  if (active_.load(std::memory_order_relaxed)) {
    // Mid-run: keep going until the high watermark, even though headroom may
    // already be back above low — that gap is the hysteresis band.
    return true;
  }
  if (!wm.NeedsWake(charged_pages)) {
    return false;  // inside the band with the latch released: stay asleep
  }
  if (!active_.exchange(true, std::memory_order_relaxed)) {
    counters_.Add(CgroupCounter::reclaim_wakeups);
  }
  return true;
}

void CgroupReclaimControl::NoteTargetReached() {
  active_.store(false, std::memory_order_relaxed);
  uint8_t running = static_cast<uint8_t>(LaneHealth::kRunning);
  health_.compare_exchange_strong(running,
                                  static_cast<uint8_t>(LaneHealth::kIdle),
                                  std::memory_order_relaxed);
}

TickOutcome CgroupReclaimControl::EnterTick() {
  if (dead_.load(std::memory_order_relaxed)) {
    return TickOutcome::kDead;
  }
  // Chaos: kill the lane for good. The death is latched here, but the
  // health transition (and the watchdog trip) belongs to the allocator
  // side: a daemon does not report its own demise — NoteEmergencyEntry
  // diagnoses it on the first over-limit allocation after the death.
  if (fault::InjectFault(fault::points::kReclaimThreadDeath)) {
    dead_.store(true, std::memory_order_relaxed);
    return TickOutcome::kDead;
  }
  // Chaos: wedge the lane for `magnitude` ticks (a policy stuck in an
  // unbounded loop, a D-state daemon). The tick makes no progress and does
  // NOT advance the heartbeat, which is what lets the watchdog see it.
  uint64_t magnitude = 0;
  if (fault::InjectFault(fault::points::kReclaimStall, &magnitude)) {
    stall_ticks_remaining_.fetch_add(
        magnitude == 0 ? kDefaultStallTicks : magnitude,
        std::memory_order_relaxed);
  }
  uint64_t remaining = stall_ticks_remaining_.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (stall_ticks_remaining_.compare_exchange_weak(
            remaining, remaining - 1, std::memory_order_relaxed)) {
      counters_.Add(CgroupCounter::reclaim_stalled_ticks);
      return TickOutcome::kStalled;
    }
  }
  return TickOutcome::kRun;
}

bool CgroupReclaimControl::InjectedUnderReclaim() {
  // Chaos: the daemon gives up early, leaving the cgroup to drift toward
  // (and over) its hard limit — overshoot must stay bounded by the
  // emergency path.
  return fault::InjectFault(fault::points::kReclaimOvershoot);
}

void CgroupReclaimControl::NoteBatch(uint64_t evicted) {
  // Heartbeat means liveness, not success: an alive lane that found every
  // folio pinned still beats, and the watchdog correctly does not trip —
  // detaching or probing it would not make folios evictable.
  heartbeat_.fetch_add(1, std::memory_order_relaxed);
  counters_.Add(CgroupCounter::reclaim_background_batches);
  counters_.Add(CgroupCounter::reclaim_background_evicted, evicted);
  if (!dead_.load(std::memory_order_relaxed)) {
    health_.store(static_cast<uint8_t>(LaneHealth::kRunning),
                  std::memory_order_relaxed);
  }
}

bool CgroupReclaimControl::NoteEmergencyEntry(uint64_t overshoot_pages) {
  counters_.Add(CgroupCounter::reclaim_emergency_entries);
  counters_.Max(CgroupCounter::reclaim_max_overshoot_pages, overshoot_pages);

  const bool is_dead = dead_.load(std::memory_order_relaxed);
  if (!is_dead) {
    const uint64_t hb = heartbeat_.load(std::memory_order_relaxed);
    if (hb != heartbeat_seen_.load(std::memory_order_relaxed)) {
      // The lane moved since we last looked: healthy (or recovered).
      heartbeat_seen_.store(hb, std::memory_order_relaxed);
      heartbeat_misses_.store(0, std::memory_order_relaxed);
      uint8_t stalled = static_cast<uint8_t>(LaneHealth::kStalled);
      health_.compare_exchange_strong(
          stalled, static_cast<uint8_t>(LaneHealth::kRunning),
          std::memory_order_relaxed);
      return true;
    }
    if (health() != LaneHealth::kStalled) {
      const uint32_t misses =
          heartbeat_misses_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (misses < kWatchdogMisses) {
        return true;  // give the lane another chance before judging it
      }
      // Watchdog trip: heartbeat flat across kWatchdogMisses emergency
      // entries while the cgroup is over its hard limit.
      health_.store(static_cast<uint8_t>(LaneHealth::kStalled),
                    std::memory_order_relaxed);
      counters_.Add(CgroupCounter::reclaim_watchdog_trips);
      probe_backoff_.store(kProbeBackoffInitial, std::memory_order_relaxed);
      probe_countdown_.store(kProbeBackoffInitial, std::memory_order_relaxed);
      return false;
    }
  } else if (health() != LaneHealth::kDead) {
    // First emergency entry to observe the death: trip once, then back off.
    health_.store(static_cast<uint8_t>(LaneHealth::kDead),
                  std::memory_order_relaxed);
    counters_.Add(CgroupCounter::reclaim_watchdog_trips);
    probe_backoff_.store(kProbeBackoffInitial, std::memory_order_relaxed);
    probe_countdown_.store(kProbeBackoffInitial, std::memory_order_relaxed);
    return false;
  }

  // Stalled or dead: exponential-backoff probing so a wedged daemon does
  // not add a futile kick to every over-limit allocation.
  uint32_t countdown = probe_countdown_.load(std::memory_order_relaxed);
  while (countdown > 0) {
    if (probe_countdown_.compare_exchange_weak(countdown, countdown - 1,
                                               std::memory_order_relaxed)) {
      return false;  // still backing off
    }
  }
  const uint32_t backoff =
      std::min(probe_backoff_.load(std::memory_order_relaxed) * 2,
               kProbeBackoffCap);
  probe_backoff_.store(backoff, std::memory_order_relaxed);
  probe_countdown_.store(backoff, std::memory_order_relaxed);
  // Probe: a stall may have healed, so one kick is worth it; a dead lane
  // never comes back — skip even the probe.
  return !is_dead;
}

void CgroupReclaimControl::NoteDirect(uint64_t ns, uint64_t zero_progress_ns,
                                      uint64_t evicted) {
  counters_.Add(CgroupCounter::reclaim_direct_entries);
  counters_.Add(CgroupCounter::reclaim_direct_evicted, evicted);
  counters_.Add(CgroupCounter::ext_direct_reclaim_ns, ns);
  // PSI mapping: `some` is time at least one task stalled on reclaim — in
  // this model, exactly the lane time the allocator spent inside direct
  // reclaim. `full` is the unproductive subset (rounds that evicted
  // nothing): everyone stalled AND nothing moved.
  counters_.Add(CgroupCounter::psi_some_ns, ns);
  counters_.Add(CgroupCounter::psi_full_ns, zero_progress_ns);
}

}  // namespace cache_ext::reclaim
