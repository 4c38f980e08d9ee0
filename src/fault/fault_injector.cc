#include "src/fault/fault_injector.h"

namespace cache_ext::fault {

std::vector<std::string_view> AllFaultPoints() {
  return {
      points::kBpfMapUpdate,      points::kBpfMapLookup,
      points::kBpfLruEvictStorm,  points::kBpfRingbufReserve,
      points::kBpfRunBudgetShrink, points::kBpfRunAbort,
      points::kCandidateCorrupt,  points::kListOp,
      points::kPolicyInit,        points::kEbrStall,
      points::kReclaimStall,      points::kReclaimThreadDeath,
      points::kReclaimOvershoot,  points::kDiskRead,
      points::kDiskWrite,         points::kSsdLatencySpike,
      points::kSsdDegrade,        points::kReadaheadMisfire,
      points::kWritebackStall,    points::kWritebackLostWakeup,
      points::kWritebackPartialFlush, points::kJitCompileFail,
  };
}

void FaultInjector::Arm(std::string_view point, const FaultSchedule& schedule) {
  MutexLock lock(mu_);
  auto [it, inserted] = points_.insert_or_assign(std::string(point),
                                                 Point(schedule));
  (void)it;
  if (inserted) {
    armed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FaultInjector::Disarm(std::string_view point) {
  MutexLock lock(mu_);
  if (points_.erase(std::string(point)) > 0) {
    armed_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::DisarmAll() {
  MutexLock lock(mu_);
  armed_.fetch_sub(points_.size(), std::memory_order_relaxed);
  points_.clear();
}

bool FaultInjector::ShouldFailArmed(std::string_view point,
                                    uint64_t* magnitude) {
  MutexLock lock(mu_);
  auto it = points_.find(std::string(point));
  if (it == points_.end()) {
    return false;
  }
  Point& p = it->second;
  const FaultSchedule& s = p.schedule;
  ++p.hits;
  if (p.fires >= s.max_fires) {
    return false;
  }
  bool fire = false;
  if (s.on_nth != 0 && p.hits == s.on_nth) {
    fire = true;
  }
  if (!fire && s.every_kth != 0 && p.hits > s.after &&
      (p.hits - s.after) % s.every_kth == 0) {
    fire = true;
  }
  if (!fire && s.probability > 0.0 && p.hits > s.after &&
      p.rng.NextBool(s.probability)) {
    fire = true;
  }
  if (fire) {
    ++p.fires;
    total_fires_.fetch_add(1, std::memory_order_relaxed);
    if (magnitude != nullptr) {
      *magnitude = s.magnitude;
    }
  }
  return fire;
}

uint64_t FaultInjector::hits(std::string_view point) const {
  MutexLock lock(mu_);
  auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::fires(std::string_view point) const {
  MutexLock lock(mu_);
  auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.fires;
}

std::vector<std::string> FaultInjector::ArmedPoints() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, p] : points_) {
    out.push_back(name);
  }
  return out;
}

}  // namespace cache_ext::fault
