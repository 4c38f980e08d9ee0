#include "src/cache_ext/framework.h"

#include "src/bpf/prog.h"
#include "src/fault/fault_injector.h"
#include "src/util/logging.h"

namespace cache_ext {

namespace {
// Garbage candidate pointer planted by the kCandidateCorrupt fault. Never
// dereferenced: the registry membership check must reject it before the
// page cache touches it (that rejection is the property under test).
Folio* PoisonCandidate() {
  return reinterpret_cast<Folio*>(static_cast<uintptr_t>(0x5ca1ab1edeadULL));
}
}  // namespace

CacheExtPolicy::CacheExtPolicy(Ops ops, MemCgroup* cg,
                               const CpuCostModel& costs)
    : ops_(std::move(ops)),
      cg_(cg),
      // Worst case: one bucket per page the cgroup can hold (§6.3.1).
      registry_(cg->limit_pages()),
      api_(&registry_),
      per_event_cost_ns_(costs.hook_dispatch_ns + costs.registry_op_ns +
                         ops_.program_cost_ns) {}

template <typename Fn>
void CacheExtPolicy::RunProgram(Hook hook, Fn&& fn) {
  bpf::RunContext run(ops_.helper_budget);
  fn();
  if (breaker_.Record(hook, run.aborted())) {
    LOG_WARNING << "cache_ext breaker: policy '" << ops_.name << "' hook '"
                << HookName(hook)
                << "' tripped; degrading this hook to default behaviour";
  }
}

Status CacheExtPolicy::Init() {
  if (fault::InjectFault(fault::points::kPolicyInit)) {
    return FailedPrecondition("policy_init failed (injected)");
  }
  int32_t rc = 0;
  bpf::RunContext run(ops_.helper_budget);
  rc = ops_.policy_init(api_, cg_);
  if (run.aborted()) {
    return ResourceExhausted("policy_init exhausted its helper budget");
  }
  if (rc != 0) {
    return FailedPrecondition("policy_init returned " + std::to_string(rc));
  }
  return OkStatus();
}

void CacheExtPolicy::FolioAdded(Folio* folio) {
  // Register first: the program's list_add() needs the folio registered. The
  // registry insert is a kernel obligation and runs even when the hook is
  // degraded — candidate validation depends on it.
  registry_.Insert(folio);
  if (Degraded(Hook::kFolioAdded)) {
    return;
  }
  RunProgram(Hook::kFolioAdded, [&] { ops_.folio_added(api_, folio); });
}

void CacheExtPolicy::FolioAccessed(Folio* folio) {
  // Trusted pointer from the page cache: an owner-tag compare, no hash.
  if (!registry_.Owns(folio)) {
    // Should not happen (attach introduces resident folios), but a policy
    // must never observe unregistered folios.
    FolioAdded(folio);
    return;
  }
  if (Degraded(Hook::kFolioAccessed)) {
    return;
  }
  RunProgram(Hook::kFolioAccessed, [&] { ops_.folio_accessed(api_, folio); });
}

void CacheExtPolicy::FolioRemoved(Folio* folio) {
  if (!registry_.Owns(folio)) {
    return;
  }
  // Tell the policy first (it cleans its maps while the folio is still
  // registered), then enforce cleanup regardless of what the program did:
  // unlink from any eviction list and drop the registry entry (§4.4). A
  // degraded hook skips only the program — cleanup is unconditional.
  if (!Degraded(Hook::kFolioRemoved)) {
    RunProgram(Hook::kFolioRemoved, [&] { ops_.folio_removed(api_, folio); });
  }
  FolioReleased(folio);
}

void CacheExtPolicy::FolioReleased(Folio* folio) {
  // The registry chain runs through the folio itself, so the folio must
  // leave it before it is freed.
  if (registry_.Owns(folio)) {
    api_.UnlinkForRemoval(folio);
    registry_.Remove(folio);
  }
}

void CacheExtPolicy::EvictFolios(EvictionCtx* ctx, MemCgroup* memcg) {
  if (Degraded(Hook::kEvictFolios)) {
    // Propose nothing: the page cache's under-proposal fallback (§4.4)
    // evicts via the default policy for the remainder of the batch.
    return;
  }
  RunProgram(Hook::kEvictFolios,
             [&] { ops_.evict_folios(api_, ctx, memcg); });
  // Injected corruption: overwrite one proposed candidate with a garbage
  // pointer, as if the policy returned a stale/forged folio. Validation
  // must reject it (feeding this hook's breaker) without dereferencing.
  if (ctx->nr_candidates_proposed > 0 &&
      fault::InjectFault(fault::points::kCandidateCorrupt)) {
    ctx->candidates[ctx->nr_candidates_proposed - 1] = PoisonCandidate();
  }
}

bool CacheExtPolicy::AdmitFolio(const AdmissionCtx& ctx) {
  if (!ops_.admit_folio || Degraded(Hook::kAdmitFolio)) {
    // Default kernel behaviour: admit everything.
    return true;
  }
  bool admit = true;
  RunProgram(Hook::kAdmitFolio,
             [&] { admit = ops_.admit_folio(api_, ctx); });
  return admit;
}

int64_t CacheExtPolicy::RequestPrefetch(const PrefetchCtx& ctx) {
  if (!ops_.request_prefetch || Degraded(Hook::kRequestPrefetch)) {
    return -1;  // defer to the kernel readahead heuristic
  }
  int64_t window = -1;
  RunProgram(Hook::kRequestPrefetch,
             [&] { window = ops_.request_prefetch(api_, ctx); });
  return window;
}

int64_t CacheExtPolicy::RequestReadahead(const ReadaheadCtx& ctx) {
  if (!ops_.readahead || Degraded(Hook::kReadahead)) {
    return -1;  // defer to the kernel readahead heuristic (window <= 8)
  }
  int64_t window = -1;
  RunProgram(Hook::kReadahead,
             [&] { window = ops_.readahead(api_, ctx); });
  // Injected misfire: the policy "returns" a wild window, as if its stream
  // tracking went off the rails. The page cache's max_readahead_pages clamp
  // must contain it (surfaced via ext_readahead_clamped).
  uint64_t magnitude = 0;
  if (fault::InjectFault(fault::points::kReadaheadMisfire, &magnitude)) {
    window = magnitude != 0 ? static_cast<int64_t>(magnitude)
                            : static_cast<int64_t>(1) << 32;
  }
  return window;
}

uint32_t CacheExtPolicy::AdmitOrder(const AdmitOrderCtx& ctx) {
  if (!ops_.admit_order || Degraded(Hook::kAdmitOrder)) {
    return 0;  // default kernel behaviour: single-page folios
  }
  uint32_t order = 0;
  RunProgram(Hook::kAdmitOrder,
             [&] { order = ops_.admit_order(api_, ctx); });
  if (!ValidFolioOrder(order)) {
    // An out-of-set order is a policy violation, not a preference: count it
    // against this hook's breaker and fall back to a single page.
    if (breaker_.Record(Hook::kAdmitOrder, true)) {
      LOG_WARNING << "cache_ext breaker: policy '" << ops_.name
                  << "' admit_order hook tripped on invalid orders";
    }
    return 0;
  }
  return order;
}

bool CacheExtPolicy::ShouldWriteback(const WritebackCtx& ctx) {
  if (!ops_.should_writeback || Degraded(Hook::kShouldWriteback)) {
    return true;  // default kernel behaviour: flush every harvested folio
  }
  bool flush = true;
  RunProgram(Hook::kShouldWriteback,
             [&] { flush = ops_.should_writeback(api_, ctx); });
  // Durability override: fsync-driven harvests may not be vetoed — a policy
  // deferring folios an fsync needs would turn a hint into data loss.
  return flush || ctx.for_sync;
}

int64_t CacheExtPolicy::WritebackOrder(const WritebackCtx& ctx) {
  if (!ops_.writeback_order || Degraded(Hook::kWritebackOrder)) {
    return -1;  // defer to file offset order
  }
  int64_t key = -1;
  RunProgram(Hook::kWritebackOrder,
             [&] { key = ops_.writeback_order(api_, ctx); });
  return key;
}

void CacheExtPolicy::FolioRefaulted(Folio* folio, uint32_t tier) {
  if (!ops_.folio_refaulted || Degraded(Hook::kFolioRefaulted)) {
    return;
  }
  RunProgram(Hook::kFolioRefaulted,
             [&] { ops_.folio_refaulted(api_, folio, tier); });
}

PolicyRuntimeCounters CacheExtPolicy::RuntimeCounters() const {
  PolicyRuntimeCounters counters;
  if (ops_.collect_counters) {
    ops_.collect_counters(&counters);
  }
  const EvictionArenaStats arena = api_.ArenaStats();
  counters.evict_alloc_bytes = arena.alloc_bytes;
  counters.evict_arena_reuses = arena.reuses;
  return counters;
}

bool CacheExtPolicy::ValidateCandidate(Folio* folio) {
  // Membership check only — the pointer is NOT dereferenced (§4.4).
  const bool valid = registry_.Contains(folio);
  if (!valid) {
    // An invalid candidate is an eviction-hook violation: it feeds the same
    // breaker as a program abort. A policy spewing garbage pointers trips
    // its evict hook on rate; one that offends too rarely to trip is
    // detached at the breaker's lifetime limit (kHardViolationLimit), the
    // only violation budget there is.
    if (breaker_.Record(Hook::kEvictFolios, true)) {
      LOG_WARNING << "cache_ext breaker: policy '" << ops_.name
                  << "' evict_folios hook tripped on invalid candidates";
    }
  }
  return valid;
}

}  // namespace cache_ext
