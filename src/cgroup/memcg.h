// Memory cgroups: the isolation boundary for page-cache policies (§4.3).
//
// Each cgroup has a page limit and owns the folios charged to it. Reclaim is
// cgroup-local: when a charge would exceed the limit, the page cache evicts
// from this cgroup's folios only. A process in cgroup A may access a folio
// owned by cgroup B — the access updates the folio's metadata (in B's
// policy), but the charge stays with B, matching Linux semantics (§2.1).

#ifndef SRC_CGROUP_MEMCG_H_
#define SRC_CGROUP_MEMCG_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/mm/folio.h"

namespace cache_ext {

// Default background-reclaim watermark ratios, in 1024ths of the cgroup
// limit (see src/reclaim/watermarks.h for the semantics): the reclaimer
// lane wakes when free headroom drops below ~1.6% of the limit and runs
// until ~4.7% headroom is restored.
inline constexpr uint32_t kDefaultReclaimLowPer1024 = 16;
inline constexpr uint32_t kDefaultReclaimHighPer1024 = 48;

// Default writeback dirty ratios, in 1024ths of the cgroup limit (see
// src/writeback/dirty.h for the semantics): the flusher lane wakes when
// dirty pages exceed ~10% of the limit and dirtying lanes are throttled
// (balance_dirty_pages analogue) above ~20%, matching the kernel's
// dirty_background_ratio / dirty_ratio split.
inline constexpr uint32_t kDefaultDirtyBgPer1024 = 102;
inline constexpr uint32_t kDefaultDirtyPer1024 = 205;

class MemCgroup {
 public:
  MemCgroup(uint64_t id, std::string name, uint64_t limit_pages)
      : id_(id), name_(std::move(name)), limit_pages_(limit_pages) {}
  MemCgroup(const MemCgroup&) = delete;
  MemCgroup& operator=(const MemCgroup&) = delete;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  uint64_t limit_pages() const { return limit_pages_; }
  void set_limit_pages(uint64_t limit) { limit_pages_ = limit; }
  uint64_t limit_bytes() const { return limit_pages_ * kPageSize; }

  uint64_t charged_pages() const {
    return charged_pages_.load(std::memory_order_relaxed);
  }
  // Multi-order folios charge their whole span in one step, like the
  // kernel's folio_nr_pages charging.
  void ChargePages(uint64_t nr) {
    charged_pages_.fetch_add(nr, std::memory_order_relaxed);
  }
  void UnchargePages(uint64_t nr) {
    charged_pages_.fetch_sub(nr, std::memory_order_relaxed);
  }
  bool OverLimit() const { return charged_pages() > limit_pages_; }
  // Pages that must be reclaimed to return under the limit.
  uint64_t ExcessPages() const {
    const uint64_t charged = charged_pages();
    return charged > limit_pages_ ? charged - limit_pages_ : 0;
  }

  // Background-reclaim watermark ratios in 1024ths of the limit. Config
  // knobs with racy-relaxed reads, like set_limit_pages: the reclaim layer
  // re-derives absolute watermarks from (limit, ratios) on every pressure
  // check, so runtime churn of either is safe (src/reclaim/watermarks.h).
  uint32_t reclaim_low_per_1024() const {
    return reclaim_low_per_1024_.load(std::memory_order_relaxed);
  }
  uint32_t reclaim_high_per_1024() const {
    return reclaim_high_per_1024_.load(std::memory_order_relaxed);
  }
  void SetReclaimWatermarks(uint32_t low_per_1024, uint32_t high_per_1024) {
    reclaim_low_per_1024_.store(low_per_1024, std::memory_order_relaxed);
    reclaim_high_per_1024_.store(high_per_1024, std::memory_order_relaxed);
  }

  // Writeback dirty ratios in 1024ths of the limit, same racy-relaxed knob
  // contract as the reclaim watermarks: the writeback layer re-derives
  // absolute thresholds from (limit, ratios) on every dirtying check
  // (src/writeback/dirty.h).
  uint32_t dirty_bg_per_1024() const {
    return dirty_bg_per_1024_.load(std::memory_order_relaxed);
  }
  uint32_t dirty_per_1024() const {
    return dirty_per_1024_.load(std::memory_order_relaxed);
  }
  void SetDirtyRatios(uint32_t bg_per_1024, uint32_t dirty_per_1024) {
    dirty_bg_per_1024_.store(bg_per_1024, std::memory_order_relaxed);
    dirty_per_1024_.store(dirty_per_1024, std::memory_order_relaxed);
  }

  // Workingset clock: advances on every eviction from this cgroup; shadow
  // entries snapshot it so refault distance can be computed (§2.1).
  uint64_t nonresident_age() const {
    return nonresident_age_.load(std::memory_order_relaxed);
  }
  uint64_t AdvanceNonresidentAge() {
    return nonresident_age_.fetch_add(1, std::memory_order_relaxed);
  }

  // Opaque back-pointer for the page cache's per-cgroup state, like the
  // kernel's mem_cgroup -> lruvec link. Lets the hot path reach its
  // CgroupState in O(1) without a registry scan (and without racing one).
  void set_priv(void* p) { priv_.store(p, std::memory_order_release); }
  void* priv() const { return priv_.load(std::memory_order_acquire); }

  // Statistics.
  std::atomic<uint64_t> stat_insertions{0};
  std::atomic<uint64_t> stat_hits{0};
  std::atomic<uint64_t> stat_misses{0};
  std::atomic<uint64_t> stat_evictions{0};
  std::atomic<uint64_t> stat_refaults{0};
  std::atomic<uint64_t> stat_activations{0};
  std::atomic<uint64_t> stat_oom_events{0};

  double HitRate() const {
    const uint64_t hits = stat_hits.load();
    const uint64_t misses = stat_misses.load();
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  void ResetStats() {
    stat_insertions = 0;
    stat_hits = 0;
    stat_misses = 0;
    stat_evictions = 0;
    stat_refaults = 0;
    stat_activations = 0;
    stat_oom_events = 0;
  }

 private:
  uint64_t id_;
  std::string name_;
  uint64_t limit_pages_;
  std::atomic<uint64_t> charged_pages_{0};
  std::atomic<uint32_t> reclaim_low_per_1024_{kDefaultReclaimLowPer1024};
  std::atomic<uint32_t> reclaim_high_per_1024_{kDefaultReclaimHighPer1024};
  std::atomic<uint32_t> dirty_bg_per_1024_{kDefaultDirtyBgPer1024};
  std::atomic<uint32_t> dirty_per_1024_{kDefaultDirtyPer1024};
  std::atomic<uint64_t> nonresident_age_{0};
  std::atomic<void*> priv_{nullptr};
};

}  // namespace cache_ext

#endif  // SRC_CGROUP_MEMCG_H_
