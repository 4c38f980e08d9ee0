#include "src/cache_ext/registry.h"

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace cache_ext {

namespace {
// Owner tags. Never reused: a registry allocated at a freed one's address
// must not recognise the folios its predecessor left tagged.
std::atomic<uint64_t> next_registry_id{1};
}  // namespace

FolioRegistry::FolioRegistry(uint64_t nr_buckets)
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      buckets_(nr_buckets == 0 ? 1 : nr_buckets) {}

size_t FolioRegistry::BucketFor(const Folio* folio) const {
  // Pointer-hash: folios are heap objects, so scramble the address.
  return Mix64(reinterpret_cast<uintptr_t>(folio)) % buckets_.size();
}

bool FolioRegistry::Insert(Folio* folio) {
  if (Owns(folio)) {
    return false;
  }
  FolioExtState& ext = folio->ext;
  ext.node = ExtListNode{};
  ext.owner = id_;
  Bucket& bucket = buckets_[BucketFor(folio)];
  {
    bpf::SpinLockGuard guard(bucket.lock);
    ext.hash_next = bucket.head;
    bucket.head = folio;
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FolioRegistry::Remove(Folio* folio) {
  if (!Owns(folio)) {
    return false;
  }
  DCHECK(!folio->ext.node.OnList());
  Bucket& bucket = buckets_[BucketFor(folio)];
  {
    bpf::SpinLockGuard guard(bucket.lock);
    Folio** link = &bucket.head;
    while (*link != folio) {
      CHECK_NOTNULL(*link);
      link = &(*link)->ext.hash_next;
    }
    *link = folio->ext.hash_next;
  }
  folio->ext.hash_next = nullptr;
  folio->ext.owner = 0;
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool FolioRegistry::Contains(const Folio* folio) const {
  const Bucket& bucket = buckets_[BucketFor(folio)];
  bpf::SpinLockGuard guard(bucket.lock);
  for (const Folio* f = bucket.head; f != nullptr; f = f->ext.hash_next) {
    if (f == folio) {
      return true;
    }
  }
  return false;
}

uint64_t FolioRegistry::Size() const {
  return size_.load(std::memory_order_relaxed);
}

uint64_t FolioRegistry::MemoryBytes() const {
  // 16 bytes per bucket + 32 bytes per filled entry (§6.3.1), though the
  // entry bytes are carried by each Folio here.
  return buckets_.size() * 16 + Size() * 32;
}

}  // namespace cache_ext
