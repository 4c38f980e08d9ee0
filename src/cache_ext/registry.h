// The valid-folio registry (§4.4).
//
// Policies return raw folio pointers as eviction candidates; a buggy or
// malicious policy could return garbage. Before the kernel dereferences a
// candidate it checks membership in this registry: folios are inserted on
// admission and removed on eviction, so any pointer not present is rejected.
// That hash walk (Contains) is for untrusted pointers only.
//
// Folio pointers the page cache itself passes in (the added / accessed /
// removed hooks, and the folio argument a hook hands to the list kfuncs) are
// trusted, so they skip the hash: each folio carries its cache_ext state
// (Folio::ext) — the list id and slot position that make list_del() and
// list_move() O(1), an owner tag naming the registering attachment, and
// this registry's bucket-chain link. Owns() is then one tag compare, and
// Insert/Remove link the folio into its bucket chain with no allocation.
//
// Accounting follows the paper (§6.3.1): a bucket costs 16 bytes (head
// pointer + lock word) and a filled entry 32 bytes more. Here those entry
// bytes live in the Folio rather than in a separate allocation.
//
// Buckets are individually locked so membership checks scale. Destruction
// never walks the chains: their nodes live in folios that may already be
// freed (~PageCache frees folios before the policies).

#ifndef SRC_CACHE_EXT_REGISTRY_H_
#define SRC_CACHE_EXT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/bpf/spinlock.h"
#include "src/mm/folio.h"

namespace cache_ext {

class FolioRegistry {
 public:
  // nr_buckets is sized to the cgroup's page capacity (§6.3.1).
  explicit FolioRegistry(uint64_t nr_buckets);
  FolioRegistry(const FolioRegistry&) = delete;
  FolioRegistry& operator=(const FolioRegistry&) = delete;

  // Register a trusted folio (on admission), resetting its list node.
  // Returns false if already present. A folio is registered with at most
  // one live registry at a time.
  bool Insert(Folio* folio);

  // Unregister a trusted folio (on removal). The folio must already be off
  // any list (the framework unlinks before removing). Returns false if
  // absent.
  bool Remove(Folio* folio);

  // Membership check for untrusted pointers (eviction candidates). Walks
  // the bucket chain; never dereferences `folio`.
  bool Contains(const Folio* folio) const;

  // Membership check for trusted, non-null folios: one owner-tag compare.
  bool Owns(const Folio* folio) const { return folio->ext.owner == id_; }

  // The list node of a trusted folio (or nullptr) if registered here, else
  // nullptr. The caller must hold the policy's list lock for any node
  // mutation.
  ExtListNode* Find(Folio* folio) const {
    return folio != nullptr && Owns(folio) ? &folio->ext.node : nullptr;
  }

  // This registry's owner tag: unique per registry for the life of the
  // process, never 0.
  uint64_t id() const { return id_; }

  uint64_t Size() const;
  uint64_t nr_buckets() const { return buckets_.size(); }

  // Footprint by the paper's §6.3.1 accounting.
  uint64_t MemoryBytes() const;

 private:
  struct Bucket {
    mutable bpf::SpinLock lock;
    Folio* head = nullptr;
  };

  size_t BucketFor(const Folio* folio) const;

  const uint64_t id_;
  std::vector<Bucket> buckets_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace cache_ext

#endif  // SRC_CACHE_EXT_REGISTRY_H_
