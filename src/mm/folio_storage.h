// Per-folio BPF local storage slots: the owner side of
// bpf::FolioLocalStorage (src/bpf/folio_local_storage.h).
//
// Mirrors the kernel's bpf_local_storage owner plumbing
// (kernel/bpf/bpf_local_storage.c): the owning object (here: Folio)
// embeds a small fixed array of storage slots, one per attached
// local-storage map. A map acquires a slot index at construction — the
// analogue of bpf_local_storage_cache_idx_get() assigning a cache index
// at map alloc — and every per-folio element it creates is published
// into folio->bpf_storage[slot], so policy lookups are a single indexed
// load off the folio instead of a hash probe.
//
// Owner-lifetime semantics: when a folio is freed (eviction, truncation,
// page-cache teardown, dry-run teardown — every path funnels through
// ~Folio), the directory walks the folio's occupied slots and hands each
// element back to its owning map, the same way bpf_local_storage_destroy
// reclaims storage when a task/inode/socket dies. Policies therefore
// cannot leak per-folio state even when their folio_removed hook never
// fires (e.g. a breaker-degraded hook, see src/cache_ext/framework.cc).
//
// This lives in src/mm (not src/bpf) because Folio embeds the slot
// array and cache_ext_mm must not depend on cache_ext_bpf; the bpf map
// template talks back to folios only through the FolioStorageOwner
// interface below.

#ifndef SRC_MM_FOLIO_STORAGE_H_
#define SRC_MM_FOLIO_STORAGE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/util/thread_annotations.h"

namespace cache_ext {

struct Folio;

// Slots embedded in every Folio. One per concurrently-attached
// local-storage map; the kernel's BPF_LOCAL_STORAGE_CACHE_SIZE is 16,
// we size for the number of policies a single process realistically
// attaches at once (one map per policy, a few cgroups). Maps beyond
// this fall back to their hash-map path (see FolioLocalStorage).
inline constexpr uint32_t kFolioLocalStorageSlots = 8;

// A local-storage map, as seen by the folio-free path.
class FolioStorageOwner {
 public:
  virtual ~FolioStorageOwner() = default;

  // Slot-mode owners: `folio` is being freed and `elem` is the element
  // this owner published into its slot (already detached from the
  // folio). The owner must recycle the element. Called with the
  // directory lock held shared; the owner may take its own map lock
  // (lock order: directory -> map, never the reverse).
  virtual void FreeFolioElem(Folio* folio, void* elem) = 0;

  // Fallback-mode owners (no slot): drop any hash-map entry keyed by
  // `folio`. Same locking contract as FreeFolioElem.
  virtual void DropFolio(Folio* folio) = 0;
};

// Process-wide slot allocator + free-path dispatcher. A singleton for
// the same reason the kernel's bpf_local_storage cache-idx array is
// global: slot indices must be unique across every live map that can
// touch the same folio.
class FolioStorageDirectory {
 public:
  static FolioStorageDirectory& Instance();

  // Claims a free slot for `owner`; returns the slot index, or -1 when
  // all slots are taken (or slot mode is disabled) — the caller must
  // then RegisterFallback and use its hash-map path.
  int32_t AcquireSlot(FolioStorageOwner* owner);

  // Releases `slot`. The owner must have already detached its elements
  // from every folio (FolioLocalStorage's destructor does this before
  // calling; see the ordering note there).
  void ReleaseSlot(int32_t slot, FolioStorageOwner* owner);

  void RegisterFallback(FolioStorageOwner* owner);
  void UnregisterFallback(FolioStorageOwner* owner);

  // Called from ~Folio on every free path. Detaches each occupied slot
  // and hands the element to its owner; notifies fallback owners so
  // hash-map entries keyed by this folio die with it.
  void OnFolioFree(Folio* folio);

  // Forces AcquireSlot to fail, so every map built afterwards runs in
  // fallback (hash-map) mode. Benchmark/ablation knob: this is how
  // bench baselines reproduce the pre-local-storage hot path.
  void SetSlotsDisabledForTesting(bool disabled) {
    slots_disabled_.store(disabled, std::memory_order_relaxed);
  }

  uint32_t SlotsInUse() const {
    return slots_in_use_.load(std::memory_order_relaxed);
  }

 private:
  FolioStorageDirectory() = default;

  // Readers of slots_/fallbacks_ on the folio-free path take this
  // shared; slot/fallback (un)registration takes it unique. This is
  // what makes "map destroyed" vs "folio freed" safe: once ReleaseSlot
  // returns, no in-flight OnFolioFree can still hold a pointer to the
  // departing owner.
  mutable SharedMutex mu_;
  std::array<FolioStorageOwner*, kFolioLocalStorageSlots> slots_
      CACHE_EXT_GUARDED_BY(mu_) = {};
  std::vector<FolioStorageOwner*> fallbacks_ CACHE_EXT_GUARDED_BY(mu_);
  std::atomic<uint32_t> slots_in_use_{0};
  std::atomic<uint32_t> nr_fallbacks_{0};
  std::atomic<bool> slots_disabled_{false};
};

}  // namespace cache_ext

#endif  // SRC_MM_FOLIO_STORAGE_H_
