#include "src/cache_ext/eviction_list.h"

#include <algorithm>
#include <new>
#include <vector>

#include "src/bpf/prog.h"
#include "src/fault/fault_injector.h"
#include "src/pagecache/current_task.h"
#include "src/util/logging.h"

namespace cache_ext {

namespace {

// How far ahead of the cursor a scan prefetches, in slots: far enough to
// hide a cold folio's miss behind the work on the folios in between.
constexpr int64_t kPrefetchAhead = 8;

// Prefetch what a scan touches in a folio: its list node (Phase 3's
// unlink) and its folio-local storage slots (the policy's score lookup).
void PrefetchFolio(const Folio* folio) {
  if (folio != nullptr) {
    __builtin_prefetch(&folio->ext);
    __builtin_prefetch(&folio->bpf_storage);
  }
}

}  // namespace

CacheExtApi::CacheExtApi(FolioRegistry* registry) : registry_(registry) {
  CHECK_NOTNULL(registry_);
}

// The slots still in use point at folios that may already be freed (the
// verifier dry run's folios, a page cache torn down before its policies), so
// teardown never dereferences them. Their owner tags go stale with the
// registry; the folio's next Insert resets the node.
CacheExtApi::~CacheExtApi() = default;

void CacheExtApi::Notify(bpf::verifier::Kfunc kfunc, ErrorCode code,
                         uint64_t list_id, uint64_t iterations) const {
  if (observer_ != nullptr) {
    observer_->OnKfunc(KfuncEvent{kfunc, code, list_id, iterations});
  }
}

CacheExtApi::ExtList* CacheExtApi::FindList(uint64_t list_id) {
  auto it = lists_.find(list_id);
  return it == lists_.end() ? nullptr : it->second.get();
}

const CacheExtApi::ExtList* CacheExtApi::FindList(uint64_t list_id) const {
  auto it = lists_.find(list_id);
  return it == lists_.end() ? nullptr : it->second.get();
}

void CacheExtApi::Link(ExtList* list, uint64_t list_id, Folio* folio,
                       bool tail) {
  ExtListNode& node = folio->ext.node;
  DCHECK(!node.OnList());
  if (static_cast<uint64_t>(list->tail - list->head) == list->slots.size()) {
    // Full: double the array. Positions are logical, so every folio keeps
    // its position and none is touched.
    std::vector<Folio*> grown(list->slots.size() * 2);
    const uint64_t mask = grown.size() - 1;
    for (int64_t pos = list->head; pos < list->tail; ++pos) {
      grown[static_cast<uint64_t>(pos) & mask] = list->At(pos);
    }
    list->slots = std::move(grown);
  }
  node.pos = tail ? list->tail++ : --list->head;
  list->At(node.pos) = folio;
  node.list_id = list_id;
  ++list->size;
}

void CacheExtApi::Unlink(ExtList* list, Folio* folio) {
  ExtListNode& node = folio->ext.node;
  DCHECK(node.OnList());
  DCHECK(list->At(node.pos) == folio);
  list->At(node.pos) = nullptr;
  node.list_id = 0;
  DCHECK(list->size > 0);
  --list->size;
  while (list->head < list->tail && list->At(list->head) == nullptr) {
    ++list->head;
  }
  while (list->tail > list->head && list->At(list->tail - 1) == nullptr) {
    --list->tail;
  }
}

void CacheExtApi::MaybeCompact(ExtList* list) {
  const uint64_t span = static_cast<uint64_t>(list->tail - list->head);
  if (span - list->size <= list->size) {
    return;  // tombstones do not outnumber live folios
  }
  int64_t out = list->head;
  for (int64_t pos = list->head; pos < list->tail; ++pos) {
    Folio* folio = list->At(pos);
    if (folio == nullptr) {
      continue;
    }
    if (pos != out) {
      list->At(out) = folio;
      list->At(pos) = nullptr;
      folio->ext.node.pos = out;
    }
    ++out;
  }
  list->tail = out;
}

Expected<uint64_t> CacheExtApi::ListCreate() {
  if (!bpf::ChargeHelperCall()) {
    Notify(bpf::verifier::Kfunc::kListCreate, ErrorCode::kResourceExhausted,
           0);
    return ResourceExhausted("program helper budget exhausted");
  }
  MutexLock lock(mu_);
  const uint64_t id = next_list_id_++;
  lists_[id] = std::make_unique<ExtList>();
  Notify(bpf::verifier::Kfunc::kListCreate, ErrorCode::kOk, id);
  return id;
}

Status CacheExtApi::ListAdd(uint64_t list_id, Folio* folio, bool tail) {
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    // Injected list misuse: the kfunc refuses the operation, as if the
    // policy passed a bad list id or an unregistered folio. The folio ends
    // up on no list — it must still be evictable via the fallback path.
    if (fault::InjectFault(fault::points::kListOp)) {
      return InvalidArgument("injected eviction-list misuse");
    }
    ExtListNode* node = registry_->Find(folio);
    if (node == nullptr) {
      return InvalidArgument("folio not registered");
    }
    MutexLock lock(mu_);
    ExtList* list = FindList(list_id);
    if (list == nullptr) {
      return NotFound("bad list id");
    }
    if (node->OnList()) {
      return FailedPrecondition("folio already on a list (use list_move)");
    }
    Link(list, list_id, folio, tail);
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListAdd, st.code(), list_id);
  return st;
}

Status CacheExtApi::ListMove(uint64_t list_id, Folio* folio, bool tail) {
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    if (fault::InjectFault(fault::points::kListOp)) {
      return InvalidArgument("injected eviction-list misuse");
    }
    ExtListNode* node = registry_->Find(folio);
    if (node == nullptr) {
      return InvalidArgument("folio not registered");
    }
    MutexLock lock(mu_);
    ExtList* dst = FindList(list_id);
    if (dst == nullptr) {
      return NotFound("bad list id");
    }
    if (node->OnList()) {
      ExtList* src = FindList(node->list_id);
      CHECK_NOTNULL(src);
      Unlink(src, folio);
      MaybeCompact(src);
    }
    Link(dst, list_id, folio, tail);
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListMove, st.code(), list_id);
  return st;
}

Status CacheExtApi::ListDel(Folio* folio) {
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    ExtListNode* node = registry_->Find(folio);
    if (node == nullptr) {
      return InvalidArgument("folio not registered");
    }
    MutexLock lock(mu_);
    if (!node->OnList()) {
      return FailedPrecondition("folio not on a list");
    }
    ExtList* list = FindList(node->list_id);
    CHECK_NOTNULL(list);
    Unlink(list, folio);
    MaybeCompact(list);
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListDel, st.code(), 0);
  return st;
}

Expected<uint64_t> CacheExtApi::ListSize(uint64_t list_id) const {
  if (!bpf::ChargeHelperCall()) {
    Notify(bpf::verifier::Kfunc::kListSize, ErrorCode::kResourceExhausted,
           list_id);
    return ResourceExhausted("program helper budget exhausted");
  }
  MutexLock lock(mu_);
  const ExtList* list = FindList(list_id);
  if (list == nullptr) {
    Notify(bpf::verifier::Kfunc::kListSize, ErrorCode::kNotFound, list_id);
    return NotFound("bad list id");
  }
  Notify(bpf::verifier::Kfunc::kListSize, ErrorCode::kOk, list_id);
  return list->size;
}

Expected<uint64_t> CacheExtApi::ListIdOf(const Folio* folio) const {
  if (!bpf::ChargeHelperCall()) {
    Notify(bpf::verifier::Kfunc::kListIdOf, ErrorCode::kResourceExhausted, 0);
    return ResourceExhausted("program helper budget exhausted");
  }
  if (folio == nullptr || !registry_->Owns(folio)) {
    Notify(bpf::verifier::Kfunc::kListIdOf, ErrorCode::kInvalidArgument, 0);
    return InvalidArgument("folio not registered");
  }
  MutexLock lock(mu_);
  const uint64_t list_id = folio->ext.node.list_id;
  Notify(bpf::verifier::Kfunc::kListIdOf, ErrorCode::kOk, list_id);
  return list_id;
}

int32_t CacheExtApi::CurrentPid() const {
  bpf::ChargeHelperCall();
  Notify(bpf::verifier::Kfunc::kCurrentTask, ErrorCode::kOk, 0);
  return GetCurrentTask().pid;
}

int32_t CacheExtApi::CurrentTid() const {
  bpf::ChargeHelperCall();
  Notify(bpf::verifier::Kfunc::kCurrentTask, ErrorCode::kOk, 0);
  return GetCurrentTask().tid;
}

void CacheExtApi::UnlinkForRemoval(Folio* folio) {
  ExtListNode* node = registry_->Find(folio);
  if (node == nullptr) {
    return;
  }
  MutexLock lock(mu_);
  if (node->OnList()) {
    ExtList* list = FindList(node->list_id);
    CHECK_NOTNULL(list);
    Unlink(list, folio);
    MaybeCompact(list);
  }
}

std::vector<Folio*> CacheExtApi::CheckedOrder(uint64_t list_id) const {
  MutexLock lock(mu_);
  std::vector<Folio*> order;
  const ExtList* list = FindList(list_id);
  if (list == nullptr) {
    return order;
  }
  const uint64_t cap = list->slots.size();
  CHECK(cap > 0 && (cap & (cap - 1)) == 0);
  CHECK(list->head <= list->tail);
  const uint64_t span = static_cast<uint64_t>(list->tail - list->head);
  CHECK(span <= cap);
  for (uint64_t i = span; i < cap; ++i) {
    CHECK(list->At(list->tail + static_cast<int64_t>(i - span)) == nullptr);
  }
  if (span > 0) {
    CHECK(list->At(list->head) != nullptr);
    CHECK(list->At(list->tail - 1) != nullptr);
  }
  for (int64_t pos = list->head; pos < list->tail; ++pos) {
    Folio* folio = list->At(pos);
    if (folio != nullptr) {
      CHECK_EQ(folio->ext.node.list_id, list_id);
      CHECK_EQ(folio->ext.node.pos, pos);
      order.push_back(folio);
    }
  }
  CHECK_EQ(order.size(), list->size);
  return order;
}

uint64_t CacheExtApi::nr_lists() const {
  MutexLock lock(mu_);
  return lists_.size();
}

void CacheExtApi::Place(ExtList* list, uint64_t list_id, Folio* folio,
                        IterPlacement placement, uint64_t dst_list_id) {
  switch (placement) {
    case IterPlacement::kKeepInPlace:
      return;
    case IterPlacement::kMoveToTail:
      Unlink(list, folio);
      Link(list, list_id, folio, /*tail=*/true);
      return;
    case IterPlacement::kMoveToList: {
      ExtList* dst = FindList(dst_list_id);
      if (dst == nullptr) {
        return;  // bad destination: leave in place (bounds-checked kfunc)
      }
      Unlink(list, folio);
      Link(dst, dst_list_id, folio, /*tail=*/true);
      return;
    }
  }
}

Status CacheExtApi::ListIterate(uint64_t list_id, const IterOpts& opts,
                                EvictionCtx* ctx, const IterateFn& fn) {
  uint64_t examined = 0;
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    MutexLock lock(mu_);
    ExtList* list = FindList(list_id);
    if (list == nullptr) {
      return NotFound("bad list id");
    }
    MaybeCompact(list);  // before the cursor exists: it renumbers
    // Examine at most min(nr_scan, initial size) folios: every examined
    // folio is either left behind the cursor, rotated to the tail, or moved
    // to another list, so none is seen twice in one call. Placements keep
    // positions, so the cursor stays valid; clamping it to head skips at
    // once the tombstones that trimming moved head past.
    uint64_t bound = std::min<uint64_t>(opts.nr_scan, list->size);
    for (int64_t pos = list->head; bound > 0 && pos < list->tail;
         pos = std::max(pos + 1, list->head)) {
      PrefetchFolio(list->At(pos + kPrefetchAhead));
      Folio* folio = list->At(pos);
      if (folio == nullptr) {
        continue;  // tombstone
      }
      --bound;
      // Each callback invocation charges the program budget (enforced loop
      // termination, §4.4).
      if (!bpf::ChargeHelperCall()) {
        return ResourceExhausted("program helper budget exhausted");
      }
      ++examined;
      const IterVerdict verdict = fn(folio);
      if (verdict == IterVerdict::kStop) {
        break;
      }
      if (verdict == IterVerdict::kEvict) {
        if (ctx != nullptr) {
          ctx->Propose(folio);
        }
        Place(list, list_id, folio, opts.on_evict, opts.dst_list_evict);
        if (ctx != nullptr && ctx->Full()) {
          break;
        }
      } else {
        Place(list, list_id, folio, opts.on_skip, opts.dst_list_skip);
      }
    }
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListIterate, st.code(), list_id, examined);
  return st;
}

Status CacheExtApi::ListIterateScore(uint64_t list_id, const IterOpts& opts,
                                     EvictionCtx* ctx, const ScoreFn& fn) {
  uint64_t examined = 0;
  const Status st = [&]() -> Status {
    if (!bpf::ChargeHelperCall()) {
      return ResourceExhausted("program helper budget exhausted");
    }
    if (ctx == nullptr) {
      return InvalidArgument("batch scoring requires an eviction ctx");
    }
    MutexLock lock(mu_);
    ExtList* list = FindList(list_id);
    if (list == nullptr) {
      return NotFound("bad list id");
    }
    MaybeCompact(list);  // before the cursor exists: it renumbers

    // Phase 1: score the first N folios, in one pass over the slots. The
    // batch lives in the per-policy arena (not a fresh std::vector), so
    // steady-state reclaim performs zero heap allocations once the arena
    // has grown to the policy's batch size.
    struct Scored {
      int64_t score;
      Folio* folio;
    };
    const uint64_t bound = std::min<uint64_t>(opts.nr_scan, list->size);
    Scored* scored =
        static_cast<Scored*>(arena_.Reserve(bound * sizeof(Scored)));
    uint64_t nr_scored = 0;
    for (int64_t pos = list->head; nr_scored < bound && pos < list->tail;
         ++pos) {
      PrefetchFolio(list->At(pos + kPrefetchAhead));
      Folio* folio = list->At(pos);
      if (folio == nullptr) {
        continue;  // tombstone
      }
      if (!bpf::ChargeHelperCall()) {
        return ResourceExhausted("program helper budget exhausted");
      }
      ++examined;
      new (&scored[nr_scored++]) Scored{fn(folio), folio};
    }

    // Phase 2: select the C lowest-scored folios (§4.2.3).
    const uint64_t remaining =
        ctx->nr_candidates_requested > ctx->nr_candidates_proposed
            ? ctx->nr_candidates_requested - ctx->nr_candidates_proposed
            : 0;
    const uint64_t c = std::min<uint64_t>(remaining, nr_scored);
    if (c > 0 && c < nr_scored) {
      std::nth_element(scored, scored + (c - 1), scored + nr_scored,
                       [](const Scored& a, const Scored& b) {
                         return a.score < b.score;
                       });
    }

    // Phase 3: propose the selected, apply placements. The first c entries
    // of `scored` are the selected ones after nth_element.
    for (uint64_t i = 0; i < nr_scored; ++i) {
      Folio* folio = scored[i].folio;
      if (i < c) {
        ctx->Propose(folio);
        Place(list, list_id, folio, opts.on_evict, opts.dst_list_evict);
      } else {
        Place(list, list_id, folio, opts.on_skip, opts.dst_list_skip);
      }
    }
    return OkStatus();
  }();
  Notify(bpf::verifier::Kfunc::kListIterateScore, st.code(), list_id,
         examined);
  return st;
}

}  // namespace cache_ext
