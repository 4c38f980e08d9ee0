// eBPF map equivalent: BPF_MAP_TYPE_HASH.
//
// Policies in this reproduction are written against the same constrained
// interface their eBPF counterparts use (§4.2.4): maps have a fixed
// max_entries set at "load" time, inserts FAIL when the map is full (E2BIG
// in the kernel; policies must handle it), lookups return pointers into the
// map whose pointees may be updated atomically, and all operations are
// thread-safe, as kernel eBPF maps are.
//
// Concurrency: HashMap is lock-striped into power-of-two bucket shards, each
// with its own mutex, mirroring the kernel's per-bucket raw_spin_lock in
// kernel/bpf/hashtab.c. max_entries stays an exact global bound (the kernel
// tracks this with a percpu elem counter; we use one atomic with
// reserve/rollback).

#ifndef SRC_BPF_MAP_H_
#define SRC_BPF_MAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/util/logging.h"
#include "src/util/thread_annotations.h"

namespace cache_ext::bpf {

enum class MapUpdateFlags {
  kAny,      // BPF_ANY: create or update
  kNoExist,  // BPF_NOEXIST: create only
  kExist,    // BPF_EXIST: update only
};

namespace detail {

// Shard count scales with capacity: tiny maps (counters, a handful of
// streams) get one shard; big per-folio metadata maps get 16-way striping.
// Always a power of two so shard selection is a mask.
inline uint32_t ShardCountFor(uint32_t max_entries) {
  if (max_entries >= 128) return 16;
  if (max_entries >= 16) return 4;
  return 1;
}

// Finalizer mix (murmur3) so pointer-ish hashes with aligned low bits still
// spread across shards.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace detail

// bpf_map_update_elem/bpf_map_lookup_elem/bpf_map_delete_elem semantics.
template <typename K, typename V>
class HashMap {
 public:
  explicit HashMap(uint32_t max_entries)
      : max_entries_(max_entries),
        shard_mask_(detail::ShardCountFor(max_entries) - 1),
        shards_(detail::ShardCountFor(max_entries)) {
    CHECK_GT(max_entries, 0u);
    for (Shard& s : shards_) {
      s.map.reserve(max_entries / shards_.size() + 1);
    }
  }
  HashMap(const HashMap&) = delete;
  HashMap& operator=(const HashMap&) = delete;

  // Returns false on failure (map full, or flags violated). Single hash
  // probe: try_emplace either lands the new element or hands back the
  // existing one; a capacity overflow rolls the insert back.
  bool Update(const K& key, const V& value,
              MapUpdateFlags flags = MapUpdateFlags::kAny) {
    if (fault::InjectFault(fault::points::kBpfMapUpdate)) {
      return false;  // injected -ENOMEM/-E2BIG
    }
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto [it, inserted] = shard.map.try_emplace(key, value);
    if (!inserted) {
      if (flags == MapUpdateFlags::kNoExist) {
        return false;
      }
      it->second = value;
      return true;
    }
    if (flags == MapUpdateFlags::kExist ||
        size_.fetch_add(1, std::memory_order_relaxed) >= max_entries_) {
      if (flags != MapUpdateFlags::kExist) {
        size_.fetch_sub(1, std::memory_order_relaxed);  // -E2BIG: roll back
      }
      shard.map.erase(it);
      return false;
    }
    return true;
  }

  // Pointer into the map (stable until the element is deleted), or nullptr.
  // Mirrors bpf_map_lookup_elem returning a PTR_TO_MAP_VALUE.
  V* Lookup(const K& key) {
    if (fault::InjectFault(fault::points::kBpfMapLookup)) {
      return nullptr;  // injected lookup miss
    }
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    return it == shard.map.end() ? nullptr : &it->second;
  }

  bool Delete(const K& key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    if (shard.map.erase(key) == 0) {
      return false;
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  uint32_t Size() const { return size_.load(std::memory_order_relaxed); }
  uint32_t max_entries() const { return max_entries_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  // bpf_for_each_map_elem equivalent; fn(key, value&) -> bool keep_going.
  // Locks one shard at a time, so concurrent mutators only stall on the
  // shard currently being walked.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      for (auto& [key, value] : shard.map) {
        if (!fn(key, value)) {
          return;
        }
      }
    }
  }

  // Visits only shard `shard_index` (< num_shards()). Batched consumers —
  // e.g. a drain that ages one stripe of per-folio metadata per reclaim
  // round — use this to bound lock hold time instead of walking the whole
  // map under ForEach. fn(key, value&) -> bool keep_going.
  template <typename Fn>
  void ForEachShard(uint32_t shard_index, Fn&& fn) {
    CHECK(shard_index < shards_.size());
    Shard& shard = shards_[shard_index];
    MutexLock lock(shard.mu);
    for (auto& [key, value] : shard.map) {
      if (!fn(key, value)) {
        return;
      }
    }
  }

  void Clear() {
    for (Shard& shard : shards_) {
      MutexLock lock(shard.mu);
      size_.fetch_sub(static_cast<uint32_t>(shard.map.size()),
                      std::memory_order_relaxed);
      shard.map.clear();
    }
  }

 private:
  struct Shard {
    Mutex mu;
    std::unordered_map<K, V> map CACHE_EXT_GUARDED_BY(mu);
  };

  Shard& ShardFor(const K& key) {
    const uint64_t h = detail::MixHash(std::hash<K>{}(key));
    return shards_[h & shard_mask_];
  }

  const uint32_t max_entries_;
  const uint64_t shard_mask_;
  // Committed element count across all shards; exact (reserve/rollback), so
  // max_entries keeps kernel -E2BIG semantics under concurrency.
  std::atomic<uint32_t> size_{0};
  std::vector<Shard> shards_;
};

}  // namespace cache_ext::bpf

#endif  // SRC_BPF_MAP_H_
